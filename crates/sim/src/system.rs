//! Top-level simulated system: cores + memory hierarchy + run loop.
//!
//! [`System`] owns the cores, their instruction sources, and the shared
//! [`MemorySystem`]; [`System::run`] simulates until every core retires its
//! instruction budget, then returns a [`SimResult`].
//!
//! The run loop schedules each core on its own: after a step, a core that
//! provably cannot change for a while — blocked behind a full ROB,
//! retrying the same stalled access, or cranking through a run of ops —
//! sleeps until the cycle it can, and the cycles it slept are replayed in
//! closed form when it wakes. The loop jumps to the earliest wake and
//! steps only the cores due then, in core order. Fills land lazily, each
//! timed at its own ready cycle. Three rules keep this bit-for-bit equal
//! to stepping every core every cycle (the lock-step reference,
//! [`System::with_fast_forward`]`(false)`):
//!
//! 1. a core stalled on an MSHR wakes no later than the next fill that can
//!    free one: its own next L1 fill for an L1 MSHR, any next fill for an
//!    LLC MSHR;
//! 2. a core stalled on an LLC MSHR also runs whenever another core runs,
//!    because its retries reserve the shared LLC banks;
//! 3. every sleeping core is settled through the current cycle before the
//!    end-of-warmup statistics reset.
//!
//! The bookkeeping behind this is proportional to events, not to cycles
//! or instructions: the run-length ROB dispatches a run of ops with one
//! add and replays a slept window in O(loads in flight), the fill queue
//! keeps its earliest ready cycle, and the memory system keeps each
//! core's in-flight L1 fill ready cycles sorted
//! (`MemorySystem::l1_ready`), so planning a wake never scans.

use std::time::{Duration, Instant};

use crate::addr::CoreId;
use crate::chaos::ChaosInjector;
use crate::config::SystemConfig;
use crate::core_model::{InstrSource, OooCore, RetrySpec};
use crate::memory::{MemorySystem, StallLevel};
use crate::prefetch::Prefetcher;
use crate::stats::SimResult;
use crate::telemetry::TelemetryLevel;
use crate::throttle::ThrottleMode;

/// Why a simulation stopped before reaching its instruction targets.
///
/// Returned by [`System::try_run`]; [`System::run`] converts these into
/// panics for callers that treat an abort as fatal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimAbort {
    /// The wall-clock budget set by [`System::with_time_limit`] ran out.
    ///
    /// The deadline is *soft*: it is polled once every 8192 run-loop
    /// iterations, so a run may overshoot the limit by up to 8192
    /// iterations of simulation work before aborting. One iteration
    /// steps each due core once and replays the cycles its sleeping
    /// cores skipped, so it can span many simulated cycles.
    DeadlineExceeded {
        /// The configured wall-clock limit.
        limit: Duration,
    },
    /// The simulation exceeded the livelock cycle bound without every core
    /// reaching its retirement target.
    CycleLimit {
        /// The cycle bound that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimAbort::DeadlineExceeded { limit } => {
                write!(f, "simulation exceeded its {limit:?} wall-clock deadline")
            }
            SimAbort::CycleLimit { limit } => {
                write!(f, "simulation livelock suspected (cycle {limit} reached)")
            }
        }
    }
}

impl std::error::Error for SimAbort {}

/// A complete simulated chip.
pub struct System {
    cores: Vec<OooCore>,
    sources: Vec<Box<dyn InstrSource>>,
    mem: MemorySystem,
    now: u64,
    mem_stats_reset: bool,
    measure_start: u64,
    deadline: Option<Duration>,
    fast_forward: bool,
    chaos: Option<ChaosInjector>,
    /// Per-core place in the run loop (see [`Schedule`]).
    sched: Vec<Schedule>,
}

impl System {
    /// Builds a system.
    ///
    /// `sources` and `prefetchers` must each have exactly one element per
    /// configured core; `instructions_per_core` is each core's retirement
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the vector lengths do not
    /// match `cfg.cores`.
    pub fn new(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        instructions_per_core: u64,
    ) -> Self {
        let targets = vec![instructions_per_core; cfg.cores];
        Self::new_heterogeneous(cfg, sources, prefetchers, &targets)
    }

    /// Builds a system with a *per-core* retirement target — the substrate
    /// for heterogeneous workload mixes, where cores carry different
    /// programs with different instruction budgets but still contend for
    /// the one shared LLC, MSHR pool, and DRAM channels.
    ///
    /// With every target equal this is exactly [`System::new`] (which
    /// delegates here), so the homogeneous path cannot drift from the
    /// heterogeneous one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any vector length does
    /// not match `cfg.cores`.
    pub fn new_heterogeneous(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        instructions_per_core: &[u64],
    ) -> Self {
        assert_eq!(sources.len(), cfg.cores, "one instruction source per core");
        assert_eq!(
            instructions_per_core.len(),
            cfg.cores,
            "one instruction target per core"
        );
        let cores = instructions_per_core
            .iter()
            .enumerate()
            .map(|(i, &target)| OooCore::new(CoreId(i), cfg.core, target))
            .collect();
        let sched = vec![Schedule::awake(0); cfg.cores];
        System {
            cores,
            sources,
            mem: MemorySystem::new(cfg, prefetchers),
            now: 0,
            mem_stats_reset: true,
            measure_start: 0,
            deadline: None,
            fast_forward: true,
            chaos: None,
            sched,
        }
    }

    /// Enables or disables per-core wake scheduling (on by default).
    ///
    /// Scheduling is a pure run-loop optimization: a core sleeps through
    /// cycles on which it provably cannot change, their effects replayed
    /// in closed form when it wakes, and the loop steps only the cores
    /// due (see the module docs). Disabled, every unfinished core is due
    /// every cycle — the lock-step reference. Results are bit-for-bit
    /// identical either way (asserted by the `fast_forward_is_bit_for_bit`
    /// tests and `tests/scheduler_equivalence.rs`). The toggle exists for
    /// those equivalence tests and for debugging.
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Sets a soft wall-clock deadline for [`System::try_run`].
    ///
    /// The clock starts when `try_run` is entered. The deadline is polled
    /// every 8192 run-loop iterations to keep `Instant::now` calls off the
    /// hot path, so the run can overshoot `limit` by up to 8192 iterations
    /// of work before aborting with [`SimAbort::DeadlineExceeded`]. An
    /// iteration steps each due core once and replays whatever its
    /// sleeping cores skipped, so it can span many simulated cycles.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Adds a warmup window of `instructions` per core: caches, predictor
    /// tables, and generators run live, but all statistics are reset when
    /// every core has retired its warmup budget — modeling the paper's
    /// SimFlex checkpoints with "warmed caches, branch predictors, and
    /// prediction tables".
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        for core in &mut self.cores {
            core.set_warmup(instructions);
        }
        self.mem_stats_reset = instructions == 0;
        self
    }

    /// Enables prefetch-lifecycle telemetry at the given level; the
    /// resulting [`SimResult::telemetry`] carries the breakdown.
    ///
    /// Telemetry is purely observational: enabling it never changes the
    /// simulated machine (miss streams and cycle counts are identical
    /// either way — see the determinism tests in `tests/telemetry.rs`).
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.mem.set_telemetry(level);
        self
    }

    /// Enables adaptive prefetch throttling in the given mode.
    ///
    /// With [`ThrottleMode::Off`] this is a no-op — the memory system then
    /// carries no throttle, so the run is bit-for-bit identical to one
    /// that never called this. Throttling is active during warmup too, so
    /// the learned levels (like predictor tables) are warm when
    /// measurement starts, and its epochs run on across the end of
    /// warmup.
    pub fn with_throttle(mut self, mode: ThrottleMode) -> Self {
        self.mem.set_throttle(mode);
        self
    }

    /// Attaches a seeded [`ChaosInjector`] that perturbs the run live (see
    /// the [`chaos`](crate::chaos) module for the taxonomy).
    ///
    /// Chaos runs step every core every cycle — wake scheduling is
    /// disabled, because a slept-through window would make the
    /// perturbation schedule depend on the optimizer instead of the plan.
    /// Deliberately *not* bit-for-bit comparable to a chaos-free run;
    /// determinism in the seed is what the chaos suite asserts.
    pub fn with_chaos(mut self, injector: ChaosInjector) -> Self {
        self.chaos = Some(injector);
        self.fast_forward = false;
        self
    }

    /// The chaos injector, if one is attached — its perturbation log grows
    /// as the run proceeds.
    pub fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    /// Convenience constructor: every core gets a prefetcher from `make_pf`.
    pub fn with_prefetchers<F>(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        mut make_pf: F,
        instructions_per_core: u64,
    ) -> Self
    where
        F: FnMut(CoreId) -> Box<dyn Prefetcher>,
    {
        let prefetchers = (0..cfg.cores).map(|i| make_pf(CoreId(i))).collect();
        System::new(cfg, sources, prefetchers, instructions_per_core)
    }

    /// Access to the memory system (diagnostics, storage accounting).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Runs until every core reaches its instruction target and returns the
    /// collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a very generous cycle bound
    /// (1e10 cycles), which would indicate a livelock in the model, or if
    /// a deadline set via [`System::with_time_limit`] expires. Callers that
    /// want to survive either condition should use [`System::try_run`].
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(result) => result,
            Err(SimAbort::CycleLimit { .. }) => panic!("simulation livelock suspected"),
            Err(abort @ SimAbort::DeadlineExceeded { .. }) => panic!("{abort}"),
        }
    }

    /// Runs like [`System::run`], but reports livelock or an expired
    /// wall-clock deadline as a [`SimAbort`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimAbort::DeadlineExceeded`] if a limit set via
    /// [`System::with_time_limit`] ran out; [`SimAbort::CycleLimit`] if the
    /// livelock cycle bound (1e10 cycles) was reached.
    pub fn try_run(mut self) -> Result<SimResult, SimAbort> {
        const CYCLE_LIMIT: u64 = 10_000_000_000;
        // Poll the wall clock only once per batch of loop iterations:
        // `Instant::now` is far too expensive to call on every one.
        // Iterations rather than cycles, because one iteration jumps over
        // every cycle on which no core is due.
        const DEADLINE_POLL_MASK: u64 = 8192 - 1;
        let started = self.deadline.map(|_| Instant::now());
        let mut iterations = 0u64;
        loop {
            // Poll on entry (iteration 0) as well: a small run can finish
            // in fewer iterations than one poll batch, and an already
            // expired deadline must still abort it.
            if iterations & DEADLINE_POLL_MASK == 0 {
                if let (Some(limit), Some(start)) = (self.deadline, started) {
                    if start.elapsed() >= limit {
                        return Err(SimAbort::DeadlineExceeded { limit });
                    }
                }
            }
            iterations += 1;
            let now = self.now;
            self.wake_due(now);
            self.mem.tick(now);
            let bubbled = match self.chaos.as_mut() {
                Some(injector) => injector.on_cycle(now, &mut self.mem, self.cores.len()),
                None => None,
            };
            let mut all_done = true;
            for i in 0..self.cores.len() {
                if self.cores[i].is_done() {
                    continue;
                }
                if self.sched[i].wake > now {
                    all_done = false;
                    continue;
                }
                if bubbled == Some(i) {
                    // Stall-bubble chaos: the core is frozen this cycle
                    // but still counts as unfinished, so the run waits
                    // out the (bounded) window.
                    all_done = false;
                    self.sched[i] = Schedule::awake(now + 1);
                    continue;
                }
                all_done &= self.cores[i].step(now, &mut self.mem, self.sources[i].as_mut());
                self.sched[i] = self.plan(i);
            }
            if !self.mem_stats_reset && self.cores.iter().all(|c| c.is_warmed()) {
                // Sleeping cores' retries through this cycle precede the
                // reset, as they would stepping cycle by cycle.
                for i in 0..self.cores.len() {
                    self.settle(i, now + 1);
                }
                self.mem.reset_stats();
                self.mem_stats_reset = true;
                self.measure_start = now;
            }
            if all_done {
                break;
            }
            self.now = self.next_cycle();
            if self.now >= CYCLE_LIMIT {
                return Err(SimAbort::CycleLimit { limit: CYCLE_LIMIT });
            }
        }
        let total_cycles = self.now - self.measure_start;
        self.mem.drain();
        // Sum trace-ingestion accounting over the sources that report it;
        // stays `None` for all-synthetic runs so historical checkpoint
        // lines (no `ingest` field) remain byte-identical.
        let mut ingest: Option<crate::stats::IngestReport> = None;
        for source in &self.sources {
            if let Some(report) = source.ingest_report() {
                ingest.get_or_insert_with(Default::default).absorb(&report);
            }
        }
        Ok(SimResult {
            cores: self.cores.iter().map(|c| c.stats.clone()).collect(),
            l1d: self.mem.l1d_stats_sum(),
            llc: self.mem.llc_stats().clone(),
            dram_transfers: self.mem.dram_transfers(),
            total_cycles,
            prefetcher_debug: self.mem.prefetcher_debug(),
            prefetcher_metrics: self.mem.prefetcher_metrics(),
            telemetry: self.mem.telemetry_report(),
            ingest,
            qos: self.mem.qos_report(),
        })
    }
}

/// What a sleeping core does on each cycle it sleeps through; replayed in
/// closed form when it wakes.
#[derive(Copy, Clone, Debug)]
enum Sleep {
    /// Nothing: the core is finished, blocked behind a full ROB whose head
    /// is still in flight, or due next cycle anyway.
    Idle,
    /// Retires what is ready and retries the same stalled access, which
    /// fails again. `level` is the MSHR file the retry stalls on, `None`
    /// when it dies at the core's own LSQ-occupancy check.
    Retry {
        spec: RetrySpec,
        level: Option<StallLevel>,
    },
    /// Retires and dispatches from the run of ops heading its stream.
    Crank,
}

impl Sleep {
    /// Whether the slept retries stall on an LLC MSHR.
    fn waits_on_llc(self) -> bool {
        matches!(
            self,
            Sleep::Retry {
                level: Some(StallLevel::Llc),
                ..
            }
        )
    }
}

/// One core's place in the run loop: it has been simulated up to (not
/// including) cycle `from` and steps next at cycle `wake`.
#[derive(Copy, Clone, Debug)]
struct Schedule {
    sleep: Sleep,
    from: u64,
    wake: u64,
}

impl Schedule {
    fn awake(cycle: u64) -> Self {
        Schedule {
            sleep: Sleep::Idle,
            from: cycle,
            wake: cycle,
        }
    }
}

impl System {
    /// How core `i` spends the cycles after `self.now`, right after its
    /// step. A core sleeps until the earliest cycle its state can change:
    /// finished (never), blocked behind a full ROB (its head's
    /// completion), re-stalling on the same structural hazard (the
    /// warmup/target boundary or, on the LSQ, the oldest store's
    /// completion), or cranking through a run of ops (as many cycles as
    /// the run and the boundary allow). Otherwise it is due next cycle —
    /// always so without fast-forward, the lock-step reference.
    fn plan(&mut self, i: usize) -> Schedule {
        let next = self.now + 1;
        if !self.fast_forward {
            return Schedule::awake(next);
        }
        // A ROB-full core whose head retires immediately is no window to
        // skip: it is exactly the throughput-bound regime the op crank
        // handles.
        let quiescent = self.cores[i]
            .quiescent_plan(self.now)
            .filter(|p| p.retry.is_some() || p.wake > next);
        let (sleep, wake) = match quiescent {
            Some(plan) => match plan.retry {
                None => (Sleep::Idle, plan.wake),
                Some(spec) => {
                    let level = spec.mem.then(|| self.mem.stall_level(i));
                    // Only the core's own fills land in its L1, so the
                    // earliest of them is when an L1 MSHR frees.
                    let wake = match level {
                        Some(StallLevel::L1) => self
                            .mem
                            .next_l1_fill_ready(i)
                            .map_or(plan.wake, |ready| plan.wake.min(ready)),
                        _ => plan.wake,
                    };
                    (Sleep::Retry { spec, level }, wake)
                }
            },
            None => {
                let k = self.cores[i].op_crank_cycles(self.sources[i].peek_ops());
                let sleep = if k == 0 { Sleep::Idle } else { Sleep::Crank };
                (sleep, next + k)
            }
        };
        Schedule {
            sleep,
            from: next,
            wake,
        }
    }

    /// Wakes the cores due at cycle `now` and settles them through
    /// `now - 1`, before the fills due at `now` land. Besides its planned
    /// wake, a core stalled on an LLC MSHR runs whenever any core does —
    /// its retries reserve the shared LLC banks another core's access may
    /// contend for — and so at every fill, which [`System::next_cycle`]
    /// never jumps over while it sleeps.
    ///
    /// Several LLC waiters sleeping through the same cycles need no more:
    /// each retried on the cycle before, so its bank's free cycle already
    /// lies past every later retry of theirs (retry cycles grow by at most
    /// one per cycle, reservations by one per retry), and the
    /// reservations add up the same in any order.
    fn wake_due(&mut self, now: u64) {
        for i in 0..self.cores.len() {
            let s = self.sched[i];
            if s.wake <= now || s.sleep.waits_on_llc() {
                self.settle(i, now);
                self.sched[i].wake = now;
            }
        }
    }

    /// Replays core `i`'s slept cycles `[from, until)` in closed form.
    /// Every closed form splits at any cycle boundary, so a core woken
    /// early, or settled for the warmup reset, replays exactly what
    /// stepping those cycles would have done.
    fn settle(&mut self, i: usize, until: u64) {
        let Schedule { sleep, from, .. } = self.sched[i];
        if until <= from {
            return;
        }
        let skipped = until - from;
        match sleep {
            Sleep::Idle => {}
            Sleep::Retry { spec, level } => {
                self.cores[i].apply_retirements(from, until);
                self.cores[i].apply_stall_cycles(from, skipped);
                if level.is_some() {
                    let first = from.max(spec.dep_ready);
                    self.mem
                        .apply_stalled_retries(i, spec.block, first, skipped);
                }
            }
            Sleep::Crank => {
                let consumed = self.cores[i].apply_op_crank(from, until);
                let taken = self.sources[i].take_ops(consumed);
                debug_assert_eq!(taken, consumed, "op run shorter than peeked");
            }
        }
        self.sched[i].from = until;
    }

    /// The next cycle any core is due: the earliest planned wake, and no
    /// later than the next fill while a core sleeps on an LLC MSHR.
    /// `u64::MAX` (a livelock, caught by the cycle limit) only if no
    /// unfinished core could ever change.
    fn next_cycle(&self) -> u64 {
        let mut wake = u64::MAX;
        let mut llc_waiters = false;
        for (core, s) in self.cores.iter().zip(&self.sched) {
            if core.is_done() {
                continue;
            }
            wake = wake.min(s.wake);
            llc_waiters |= s.sleep.waits_on_llc();
        }
        if llc_waiters {
            if let Some(ready) = self.mem.next_fill_ready() {
                wake = wake.min(ready);
            }
        }
        debug_assert!(wake > self.now, "a core woke in the past");
        wake
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Pc};
    use crate::core_model::Instr;
    use crate::prefetch::{NextLinePrefetcher, NoPrefetcher};

    fn streaming_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(4) {
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new(base + (next / 4) * 64),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        })
    }

    #[test]
    fn single_core_run_produces_stats() {
        let cfg = SystemConfig::tiny();
        let sys = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            20_000,
        );
        let r = sys.run();
        assert_eq!(r.cores.len(), 1);
        assert_eq!(r.cores[0].instructions, 20_000);
        assert!(r.total_cycles > 0);
        assert!(r.llc.demand_misses > 0, "streaming must miss");
        assert!(r.llc_mpki() > 0.0);
    }

    #[test]
    fn next_line_prefetcher_improves_streaming_ipc() {
        let cfg = SystemConfig::tiny();
        let base = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            40_000,
        )
        .run();
        let pf = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NextLinePrefetcher::new(4))],
            40_000,
        )
        .run();
        assert!(
            pf.speedup_over(&base) > 1.2,
            "next-line on a pure stream should speed up ({} vs {})",
            pf.aggregate_ipc(),
            base.aggregate_ipc()
        );
        assert!(pf.llc.demand_misses < base.llc.demand_misses);
    }

    #[test]
    fn multi_core_runs_to_completion_deterministically() {
        let cfg = {
            let mut c = SystemConfig::tiny();
            c.cores = 2;
            c
        };
        let run = || {
            System::new(
                cfg,
                vec![streaming_source(0), streaming_source(1)],
                vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
                10_000,
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "simulation must be deterministic"
        );
        assert_eq!(a.llc.demand_misses, b.llc.demand_misses);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.cores[1].instructions, 10_000);
    }

    #[test]
    #[should_panic(expected = "one instruction source per core")]
    fn source_count_must_match() {
        let cfg = SystemConfig::tiny();
        let _ = System::new(cfg, vec![], vec![Box::new(NoPrefetcher)], 100);
    }

    /// Per-core retirement targets: each core stops at its own budget, and
    /// uniform targets are bit-for-bit the [`System::new`] path.
    #[test]
    fn heterogeneous_targets_honor_each_core() {
        let cfg = SystemConfig::tiny().with_cores(2);
        let r = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[12_000, 3_000],
        )
        .run();
        assert_eq!(r.cores[0].instructions, 12_000);
        assert_eq!(r.cores[1].instructions, 3_000);
        assert!(
            r.cores[1].cycles < r.cores[0].cycles,
            "the smaller budget must finish first"
        );

        let uniform = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[8_000, 8_000],
        )
        .run();
        let classic = System::new(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            8_000,
        )
        .run();
        assert_eq!(uniform, classic, "uniform targets must match System::new");
    }

    #[test]
    #[should_panic(expected = "one instruction target per core")]
    fn target_count_must_match() {
        let cfg = SystemConfig::tiny().with_cores(2);
        let _ = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[100],
        );
    }

    /// A pointer-chase source: every 3rd instruction is a dependent load
    /// to a fresh block, exercising dependency-wait retries under MSHR
    /// pressure.
    fn chase_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(3) {
                Instr::Load {
                    pc: Pc::new(0x440),
                    addr: Addr::new(base + (next / 3) * 64 * 512),
                    dep: Some((core % 4) as u8),
                }
            } else {
                Instr::Op
            }
        })
    }

    /// A store-heavy source that saturates the LSQ and the MSHRs.
    fn store_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(2) {
                Instr::Store {
                    pc: Pc::new(0x500),
                    addr: Addr::new(base + (next / 2) * 64 * 512),
                }
            } else {
                Instr::Op
            }
        })
    }

    /// The quiescent fast-forward must be unobservable: identical
    /// `SimResult`s (every counter, every prefetcher debug string) with it
    /// on and off, across stall-heavy source shapes.
    #[test]
    fn fast_forward_is_bit_for_bit() {
        let cfg = {
            let mut c = SystemConfig::tiny();
            c.cores = 2;
            c
        };
        type SourceShape = fn(usize) -> Box<dyn InstrSource>;
        let shapes: &[SourceShape] = &[streaming_source, chase_source, store_source];
        for (si, make_src) in shapes.iter().enumerate() {
            let build = |ff: bool| {
                System::new(
                    cfg,
                    (0..2).map(make_src).collect(),
                    vec![Box::new(NextLinePrefetcher::new(4)), Box::new(NoPrefetcher)],
                    8_000,
                )
                .with_fast_forward(ff)
            };
            let fast = build(true).run();
            let slow = build(false).run();
            assert_eq!(fast, slow, "fast-forward diverged on source shape {si}");
        }
    }

    /// Same equivalence through a warmup window, where the measurement
    /// reset must land on the same cycle in both modes.
    #[test]
    fn fast_forward_is_bit_for_bit_with_warmup() {
        let cfg = SystemConfig::tiny();
        let build = |ff: bool| {
            System::new(
                cfg,
                vec![chase_source(0)],
                vec![Box::new(NextLinePrefetcher::new(2))],
                6_000,
            )
            .with_warmup(2_000)
            .with_fast_forward(ff)
        };
        let fast = build(true).run();
        let slow = build(false).run();
        assert_eq!(fast, slow);
        assert_eq!(fast.cores[0].instructions, 6_000);
    }

    #[test]
    fn zero_deadline_aborts_immediately() {
        let cfg = SystemConfig::tiny();
        let sys = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            1_000_000,
        )
        .with_time_limit(std::time::Duration::ZERO);
        match sys.try_run() {
            Err(SimAbort::DeadlineExceeded { limit }) => {
                assert_eq!(limit, std::time::Duration::ZERO);
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_matches_unlimited_run() {
        let cfg = SystemConfig::tiny();
        let build = || {
            System::new(
                cfg,
                vec![streaming_source(0)],
                vec![Box::new(NoPrefetcher)],
                20_000,
            )
        };
        let unlimited = build().run();
        let limited = build()
            .with_time_limit(std::time::Duration::from_secs(3600))
            .try_run()
            .expect("an hour is plenty for 20k instructions");
        assert_eq!(unlimited.total_cycles, limited.total_cycles);
        assert_eq!(unlimited.llc.demand_misses, limited.llc.demand_misses);
    }
}
