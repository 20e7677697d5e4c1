//! Experiment runner: one declarative cell type and one engine that
//! resolves grids of them.
//!
//! Every figure of the paper is a grid of simulations, each read against
//! reference runs: the no-prefetcher baseline of the same workload or
//! trace, or, for a multi-core mix, the solo run of every core slot.
//!
//! * [`CellSpec`] describes one simulation completely: what each core
//!   runs ([`Cores`]: a synthetic workload, a captured trace, a declared
//!   mix, or one mix slot alone), the scale, the memory pressure, the
//!   telemetry level, the throttle mode, the QoS SLO, the chaos plan and
//!   the soft deadline. It has one [`CellSpec::run`], one panic-isolated
//!   [`CellSpec::run_isolated`], and one checkpoint/stats
//!   [`CellSpec::key`].
//! * [`ParallelHarness`] resolves every list of specs the same way: the
//!   in-memory cache, then the checkpoint, then a bounded pool of scoped
//!   worker threads, then recording to the checkpoint and the stats
//!   export. Its three grids (classic, trace, mix) differ only in the
//!   reference specs they derive and in what they compute from the
//!   results: coverage and speedup, or fairness.
//!
//! **Determinism.** A cell's result is a pure function of its spec: each
//! run builds its own instruction sources (seeded from `scale.seed`, one
//! stream per core slot via [`Workload::source_for_core`]) and its own
//! prefetchers, and shares no mutable state with other cells. The
//! prefetcher kind deliberately does *not* perturb the workload's RNG
//! stream — every prefetcher must observe the exact access stream its
//! no-prefetcher baseline observed, or coverage and speedup would compare
//! different program runs. Consequently [`ParallelHarness`] produces
//! bit-for-bit the same [`SimResult`]s regardless of scheduling order,
//! worker count, or completion order — verified by the
//! `results_do_not_depend_on_the_worker_count` test below.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use bingo::{Bingo, BingoConfig, EventKind, MultiEventConfig, MultiEventPrefetcher};
use bingo_baselines::{
    Ampm, AmpmConfig, Bop, BopConfig, Sms, SmsConfig, Spp, SppConfig, StrideConfig,
    StridePrefetcher, Vldp, VldpConfig,
};
use bingo_sim::{
    ChaosInjector, ChaosPlan, CoverageReport, FaultPlan, FaultyPrefetcher, NextLinePrefetcher,
    NoPrefetcher, Prefetcher, SimAbort, SimResult, System, SystemConfig, TelemetryLevel,
    ThrottleMode,
};
use bingo_workloads::{TraceWorkload, Workload};

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::mix::{FairnessReport, MixAssignment, MixConfig, Pressure};
use crate::stats_export::StatsExport;

/// Which prefetcher to attach to every core.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum PrefetcherKind {
    /// No prefetcher (baseline).
    None,
    /// Best-Offset prefetcher, paper configuration.
    Bop,
    /// BOP at degree 32 (Fig. 10 "Aggr").
    BopAggressive,
    /// Signature Path prefetcher, paper configuration.
    Spp,
    /// SPP at a 1 % confidence threshold (Fig. 10 "Aggr").
    SppAggressive,
    /// Variable-Length Delta prefetcher, paper configuration.
    Vldp,
    /// VLDP at degree 32 (Fig. 10 "Aggr").
    VldpAggressive,
    /// Access Map Pattern Matching.
    Ampm,
    /// Spatial Memory Streaming.
    Sms,
    /// Bingo, paper configuration (16 K-entry unified table).
    Bingo,
    /// Bingo with a non-default history size (Fig. 6 sweep).
    BingoEntries(usize),
    /// Bingo with a non-default footprint-voting threshold (ablation).
    BingoVote(f64),
    /// Single-event TAGE-like prefetcher (Fig. 2 sweep).
    SingleEvent(EventKind),
    /// Multi-event cascade over the first `n` events (Fig. 3 sweep; also
    /// the Fig. 4 redundancy vehicle at `n = 2`).
    MultiEvent(usize),
    /// Classic PC-stride prefetcher (reference).
    Stride,
    /// Next-line prefetcher with the given degree (reference).
    NextLine(usize),
    /// Bingo with seeded metadata corruption at the given per-event rate
    /// (fault-injection robustness experiments; see `bingo_sim::FaultPlan`).
    BingoFaulty {
        /// Seed of the fault injector's RNG stream (independent of the
        /// workload seed, so corruption varies while the access stream
        /// does not).
        fault_seed: u64,
        /// Probability applied to every fault class: footprint bit flips,
        /// history-entry drops, prefetch drops.
        rate: f64,
    },
    /// A prefetcher that deliberately panics after the given number of
    /// accesses — the test vehicle for panic-isolated sweeps.
    Faulty {
        /// Accesses observed before the deliberate panic.
        panic_after: u64,
    },
}

impl PrefetcherKind {
    /// The six prefetchers of the paper's headline comparison, figure
    /// order.
    pub const HEADLINE: [PrefetcherKind; 6] = [
        PrefetcherKind::Bop,
        PrefetcherKind::Spp,
        PrefetcherKind::Vldp,
        PrefetcherKind::Ampm,
        PrefetcherKind::Sms,
        PrefetcherKind::Bingo,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            PrefetcherKind::None => "None".into(),
            PrefetcherKind::Bop => "BOP".into(),
            PrefetcherKind::BopAggressive => "BOP-Aggr".into(),
            PrefetcherKind::Spp => "SPP".into(),
            PrefetcherKind::SppAggressive => "SPP-Aggr".into(),
            PrefetcherKind::Vldp => "VLDP".into(),
            PrefetcherKind::VldpAggressive => "VLDP-Aggr".into(),
            PrefetcherKind::Ampm => "AMPM".into(),
            PrefetcherKind::Sms => "SMS".into(),
            PrefetcherKind::Bingo => "Bingo".into(),
            PrefetcherKind::BingoEntries(n) => format!("Bingo-{}K", n / 1024),
            PrefetcherKind::BingoVote(t) => format!("Bingo-vote{:.0}%", t * 100.0),
            PrefetcherKind::SingleEvent(k) => k.label().into(),
            PrefetcherKind::MultiEvent(n) => format!("{n}-event"),
            PrefetcherKind::Stride => "Stride".into(),
            PrefetcherKind::NextLine(d) => format!("NextLine-{d}"),
            PrefetcherKind::BingoFaulty { rate, .. } => {
                format!("Bingo-fault{:.1}%", rate * 100.0)
            }
            PrefetcherKind::Faulty { panic_after } => format!("Faulty@{panic_after}"),
        }
    }

    /// Parses a mix-config prefetcher slug — the lowercase spelling used
    /// by `core … prefetcher=<slug>` lines. Only the fixed paper
    /// configurations are addressable from config files; parameterized
    /// kinds (entry sweeps, fault injection, …) stay programmatic.
    /// `None` for anything unrecognized, so the parser can report the
    /// bad name with its line number.
    pub fn from_slug(slug: &str) -> Option<PrefetcherKind> {
        Some(match slug {
            "none" => PrefetcherKind::None,
            "bop" => PrefetcherKind::Bop,
            "bop-aggr" => PrefetcherKind::BopAggressive,
            "spp" => PrefetcherKind::Spp,
            "spp-aggr" => PrefetcherKind::SppAggressive,
            "vldp" => PrefetcherKind::Vldp,
            "vldp-aggr" => PrefetcherKind::VldpAggressive,
            "ampm" => PrefetcherKind::Ampm,
            "sms" => PrefetcherKind::Sms,
            "bingo" => PrefetcherKind::Bingo,
            "stride" => PrefetcherKind::Stride,
            _ => return None,
        })
    }

    /// Builds one prefetcher instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NoPrefetcher),
            PrefetcherKind::Bop => Box::new(Bop::new(BopConfig::paper())),
            PrefetcherKind::BopAggressive => Box::new(Bop::new(BopConfig::aggressive())),
            PrefetcherKind::Spp => Box::new(Spp::new(SppConfig::paper())),
            PrefetcherKind::SppAggressive => Box::new(Spp::new(SppConfig::aggressive())),
            PrefetcherKind::Vldp => Box::new(Vldp::new(VldpConfig::paper())),
            PrefetcherKind::VldpAggressive => Box::new(Vldp::new(VldpConfig::aggressive())),
            PrefetcherKind::Ampm => Box::new(Ampm::new(AmpmConfig::paper())),
            PrefetcherKind::Sms => Box::new(Sms::new(SmsConfig::paper())),
            PrefetcherKind::Bingo => Box::new(Bingo::new(BingoConfig::paper())),
            PrefetcherKind::BingoEntries(n) => {
                Box::new(Bingo::new(BingoConfig::with_history_entries(n)))
            }
            PrefetcherKind::BingoVote(t) => Box::new(Bingo::new(BingoConfig {
                vote_threshold: t,
                ..BingoConfig::paper()
            })),
            PrefetcherKind::SingleEvent(k) => {
                Box::new(MultiEventPrefetcher::new(MultiEventConfig::single(k)))
            }
            PrefetcherKind::MultiEvent(n) => {
                Box::new(MultiEventPrefetcher::new(MultiEventConfig::first_n(n)))
            }
            PrefetcherKind::Stride => Box::new(StridePrefetcher::new(StrideConfig::typical())),
            PrefetcherKind::NextLine(d) => Box::new(NextLinePrefetcher::new(d)),
            PrefetcherKind::BingoFaulty { fault_seed, rate } => Box::new(Bingo::with_faults(
                BingoConfig::paper(),
                FaultPlan::uniform(fault_seed, rate),
            )),
            PrefetcherKind::Faulty { panic_after } => Box::new(FaultyPrefetcher::new(panic_after)),
        }
    }

    /// Per-core metadata storage in bits, computed from the configuration
    /// alone. Building a prefetcher just to size it would allocate its
    /// tables — megabytes for Bingo's 16 K-entry history — on every call
    /// of the parallel sweep; the config-level accounting is free and
    /// asserted equal to the built value by a test.
    pub fn storage_bits(self) -> u64 {
        match self {
            PrefetcherKind::None => 0,
            PrefetcherKind::Bop => BopConfig::paper().storage_bits(),
            PrefetcherKind::BopAggressive => BopConfig::aggressive().storage_bits(),
            PrefetcherKind::Spp => SppConfig::paper().storage_bits(),
            PrefetcherKind::SppAggressive => SppConfig::aggressive().storage_bits(),
            PrefetcherKind::Vldp => VldpConfig::paper().storage_bits(),
            PrefetcherKind::VldpAggressive => VldpConfig::aggressive().storage_bits(),
            PrefetcherKind::Ampm => AmpmConfig::paper().storage_bits(),
            PrefetcherKind::Sms => SmsConfig::paper().storage_bits(),
            PrefetcherKind::Bingo => BingoConfig::paper().storage_bits(),
            PrefetcherKind::BingoEntries(n) => BingoConfig::with_history_entries(n).storage_bits(),
            PrefetcherKind::BingoVote(t) => BingoConfig {
                vote_threshold: t,
                ..BingoConfig::paper()
            }
            .storage_bits(),
            PrefetcherKind::SingleEvent(k) => MultiEventConfig::single(k).storage_bits(),
            PrefetcherKind::MultiEvent(n) => MultiEventConfig::first_n(n).storage_bits(),
            PrefetcherKind::Stride => StrideConfig::typical().storage_bits(),
            // Next-line keeps no metadata (trait default).
            PrefetcherKind::NextLine(_) => 0,
            // Fault injection corrupts Bingo's tables, it does not resize
            // them.
            PrefetcherKind::BingoFaulty { .. } => BingoConfig::paper().storage_bits(),
            // The panic vehicle keeps no metadata (trait default).
            PrefetcherKind::Faulty { .. } => 0,
        }
    }

    /// Per-core metadata storage in KB (for the performance-density model).
    pub fn storage_kb(self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

/// Simulation scale for an experiment run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunScale {
    /// Instructions retired per core in the measurement window.
    pub instructions_per_core: u64,
    /// Warmup instructions per core (caches and predictor tables live,
    /// statistics discarded) — the SimFlex warmed-checkpoint methodology.
    pub warmup_per_core: u64,
    /// Workload seed.
    pub seed: u64,
}

impl RunScale {
    /// The full scale used for the published numbers in EXPERIMENTS.md.
    pub fn full() -> Self {
        RunScale {
            instructions_per_core: 1_000_000,
            warmup_per_core: 1_500_000,
            seed: 42,
        }
    }

    /// A reduced scale for CI, the `--quick` flag and the
    /// `figure_benches` bench.
    pub fn quick() -> Self {
        RunScale {
            instructions_per_core: 150_000,
            warmup_per_core: 100_000,
            seed: 42,
        }
    }
}

/// Runs `f(0), f(1), ..., f(n - 1)` on a bounded pool of at most `jobs`
/// scoped worker threads and returns the results in index order.
///
/// Workers pull indices from a shared atomic counter, so cells are load
/// balanced dynamically; results land in per-index slots, so the output
/// order is independent of completion order. With `jobs <= 1` (or a single
/// item) the calls run inline on the current thread.
///
/// # Panics
///
/// Panics if `jobs` is zero, or propagates a panic from `f`.
pub fn parallel_map<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(jobs > 0, "need at least one worker");
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                // A panic in another worker must not cascade here: lock
                // poisoning only records that *some* thread panicked, and
                // these per-index slots are written exactly once, so the
                // data is sound regardless. Clearing the poison lets every
                // healthy worker deliver its finished cell.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// What the cores of one cell run: their instruction streams, their
/// prefetchers and their committed-instruction targets.
#[derive(Clone, Debug)]
pub enum Cores {
    /// The classic cell: one synthetic workload and one prefetcher kind
    /// on every core of the paper machine, each core at the full budget.
    Uniform(Workload, PrefetcherKind),
    /// A captured trace replayed on every core of the paper machine under
    /// its ingestion [`bingo_trace::Policy`], one prefetcher kind on every
    /// core. A strict trace fails the run on the first corrupt byte (the
    /// typed [`bingo_trace::ReadError`], byte offset included, becomes the
    /// panic message); a lenient one quarantines damage and reports it in
    /// [`SimResult::ingest`].
    Trace(TraceWorkload, PrefetcherKind),
    /// A declared mix on a machine of the given core count; cores past
    /// the declared slots repeat the pattern cyclically (see
    /// [`MixConfig::assignment`]). The shared LLC, MSHR pool and DRAM
    /// keep the paper machine's sizing.
    Mix(MixConfig, usize),
    /// One mix slot *alone* on a 1-core machine: the slot's instruction
    /// stream (same slot index, so the same seed and address space),
    /// prefetcher and target, with the whole memory system to itself.
    /// A mix's per-core slowdown is this run's IPC over the slot's IPC
    /// inside the mix.
    Solo(MixAssignment, usize),
}

/// One fully declared simulation. Build it with [`CellSpec::new`] and
/// set the rest with struct-update syntax:
///
/// ```
/// use bingo_bench::{CellSpec, Cores, PrefetcherKind, RunScale};
/// use bingo_sim::ThrottleMode;
/// use bingo_workloads::Workload;
///
/// let scale = RunScale { instructions_per_core: 2_000, warmup_per_core: 1_000, seed: 1 };
/// let spec = CellSpec {
///     throttle: ThrottleMode::Feedback,
///     ..CellSpec::new(Cores::Uniform(Workload::Streaming, PrefetcherKind::Bingo), scale)
/// };
/// assert_eq!(spec.key().unwrap(), "1/2000/1000/Streaming/Bingo/throttle=feedback");
/// assert!(spec.run().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// What every core runs.
    pub cores: Cores,
    /// Instruction budget, warmup and workload seed.
    pub scale: RunScale,
    /// Memory-pressure level applied to the shared resources.
    pub pressure: Pressure,
    /// Prefetch-lifecycle telemetry level. Telemetry never changes the
    /// simulated machine; it only populates [`SimResult::telemetry`].
    pub telemetry: TelemetryLevel,
    /// Prefetch-throttle mode. [`ThrottleMode::Off`] attaches no
    /// controller and is bit-for-bit invisible.
    pub throttle: ThrottleMode,
    /// Starvation-SLO override for [`ThrottleMode::Percore`]; `None`
    /// keeps [`bingo_sim::DEFAULT_QOS_SLO`].
    pub qos_slo: Option<f64>,
    /// Plan of a chaos injector perturbing the live run.
    pub chaos: Option<ChaosPlan>,
    /// Soft wall-clock deadline, checked at instruction-batch
    /// granularity inside the simulation loop.
    pub deadline: Option<Duration>,
}

impl CellSpec {
    /// A spec for `cores` at `scale` with every option at its default:
    /// no pressure, telemetry, throttle, SLO override, chaos or deadline.
    pub fn new(cores: Cores, scale: RunScale) -> CellSpec {
        CellSpec {
            cores,
            scale,
            pressure: Pressure::NONE,
            telemetry: TelemetryLevel::Off,
            throttle: ThrottleMode::Off,
            qos_slo: None,
            chaos: None,
            deadline: None,
        }
    }

    /// The core count of the cell's machine.
    fn core_count(&self) -> usize {
        match &self.cores {
            Cores::Uniform(..) | Cores::Trace(..) => SystemConfig::paper().cores,
            Cores::Mix(_, cores) => *cores,
            Cores::Solo(..) => 1,
        }
    }

    /// The runs this cell is read against: the no-prefetcher run of the
    /// same workload or trace, or the solo run of every mix slot. A solo
    /// run has none.
    fn references(&self) -> Vec<CellSpec> {
        let with = |cores: Cores| CellSpec {
            cores,
            ..self.clone()
        };
        match &self.cores {
            Cores::Uniform(w, _) => vec![with(Cores::Uniform(*w, PrefetcherKind::None))],
            Cores::Trace(t, _) => vec![with(Cores::Trace(t.clone(), PrefetcherKind::None))],
            Cores::Mix(mix, cores) => (0..*cores)
                .map(|slot| with(Cores::Solo(mix.assignment(slot), slot)))
                .collect(),
            Cores::Solo(..) => Vec::new(),
        }
    }

    /// Human-readable name of the cell for progress lines and failure
    /// reports: `em3d / Bingo`, `<trace> / Bingo`, `<mix>@4 / scarce`,
    /// `solo c1=streaming+Stride / scarce`.
    pub fn label(&self) -> String {
        match &self.cores {
            Cores::Uniform(w, k) => format!("{} / {}", w.name(), k.name()),
            Cores::Trace(t, k) => format!("{} / {}", t.name(), k.name()),
            Cores::Mix(mix, cores) => format!("{}@{cores} / {}", mix.name, self.pressure.name),
            Cores::Solo(a, slot) => format!("solo {} / {}", a.slot_spec(*slot), self.pressure.name),
        }
    }

    /// The checkpoint/stats key: everything that determines the result.
    /// Two specs with equal keys are interchangeable across process
    /// lifetimes. The four namespaces:
    ///
    /// * classic: `{seed}/{instr}/{warmup}/{Workload:?}/{Kind:?}`;
    /// * trace: `trace:{TraceWorkload::key}/{instr}/{warmup}/{Kind:?}` —
    ///   no seed, the recorded bytes fix the stream;
    /// * mix: `mix:{seed}/{instr}/{warmup}/{name}@{cores}/{MixConfig::spec}`
    ///   — renaming a mix *or* editing its slots invalidates old entries;
    /// * solo: `mix-solo:{seed}/{instr}/{warmup}/{slot spec}` — not
    ///   namespaced by mix name, so mixes sharing a slot share its solo.
    ///
    /// Then `/pressure=…`, `/telemetry=…`, `/throttle=…` and `/slo=…`
    /// follow, each only when not at its default, so default-mode keys
    /// stay byte-for-byte those of checkpoints written before the option
    /// existed.
    ///
    /// `None` for a spec carrying a chaos plan: such runs are never
    /// checkpointed, cached or exported under a key.
    pub fn key(&self) -> Option<String> {
        if self.chaos.is_some() {
            return None;
        }
        let RunScale {
            instructions_per_core: instr,
            warmup_per_core: warmup,
            seed,
        } = self.scale;
        let base = match &self.cores {
            Cores::Uniform(w, k) => format!("{seed}/{instr}/{warmup}/{w:?}/{k:?}"),
            Cores::Trace(t, k) => format!("trace:{}/{instr}/{warmup}/{k:?}", t.key()),
            Cores::Mix(mix, cores) => format!(
                "mix:{seed}/{instr}/{warmup}/{}@{cores}/{}",
                mix.name,
                mix.spec()
            ),
            Cores::Solo(a, slot) => {
                format!("mix-solo:{seed}/{instr}/{warmup}/{}", a.slot_spec(*slot))
            }
        };
        let telemetry = match self.telemetry {
            TelemetryLevel::Off => "",
            TelemetryLevel::Counts => "/telemetry=counts",
            TelemetryLevel::Trace => "/telemetry=trace",
        };
        let throttle = match self.throttle {
            ThrottleMode::Off => String::new(),
            mode => format!("/throttle={mode}"),
        };
        let slo = self
            .qos_slo
            .map_or(String::new(), |slo| format!("/slo={slo}"));
        Some(format!(
            "{base}{}{telemetry}{throttle}{slo}",
            self.pressure.key_suffix()
        ))
    }

    /// Builds and runs the cell's machine, reporting deadline or
    /// cycle-limit aborts as values.
    ///
    /// # Errors
    ///
    /// [`SimAbort::DeadlineExceeded`] when the deadline expires,
    /// [`SimAbort::CycleLimit`] on a suspected livelock.
    ///
    /// # Panics
    ///
    /// Panics if a trace cannot be opened or is corrupt under the strict
    /// policy, or if a mix machine has zero cores;
    /// [`CellSpec::run_isolated`] confines such panics to the cell.
    pub fn run(&self) -> Result<SimResult, SimAbort> {
        let cores = self.core_count();
        assert!(cores > 0, "a cell machine needs at least one core");
        let RunScale {
            instructions_per_core: instr,
            warmup_per_core: warmup,
            seed,
        } = self.scale;
        let mut cfg = SystemConfig::paper().with_cores(cores);
        self.pressure.apply(&mut cfg);
        cfg.qos_slo = self.qos_slo;
        let sources = match &self.cores {
            Cores::Uniform(w, _) => w.sources(cores, seed),
            Cores::Trace(t, _) => t
                .sources(cores)
                .unwrap_or_else(|e| panic!("trace workload {}: {e}", t.name())),
            Cores::Mix(mix, _) => (0..cores)
                .map(|i| mix.assignment(i).workload.source_for_core(i, seed))
                .collect(),
            Cores::Solo(a, slot) => vec![a.workload.source_for_core(*slot, seed)],
        };
        let (kinds, targets): (Vec<PrefetcherKind>, Vec<u64>) = (0..cores)
            .map(|i| match &self.cores {
                Cores::Uniform(_, k) | Cores::Trace(_, k) => (*k, instr),
                Cores::Mix(mix, _) => {
                    let a = mix.assignment(i);
                    (a.prefetcher, a.instructions(instr))
                }
                Cores::Solo(a, _) => (a.prefetcher, a.instructions(instr)),
            })
            .unzip();
        let prefetchers = kinds.iter().map(|k| k.build()).collect();
        let mut system = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
            .with_warmup(warmup)
            .with_telemetry(self.telemetry)
            .with_throttle(self.throttle);
        if let Some(plan) = &self.chaos {
            system = system.with_chaos(ChaosInjector::new(plan.clone()));
        }
        if let Some(limit) = self.deadline {
            system = system.with_time_limit(limit);
        }
        system.try_run()
    }

    /// [`CellSpec::run`] with panic isolation: never panics and never
    /// blocks past the deadline — every failure mode comes back as a
    /// [`CellOutcome`]. With `progress` set, prints a `[cell]` line to
    /// stderr: the label, wall seconds, and simulated instructions per
    /// wall second or the failure mode.
    pub fn run_isolated(&self, progress: bool) -> CellOutcome {
        let start = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| self.run())) {
            Ok(Ok(result)) => CellOutcome::Ok(Box::new(result)),
            Ok(Err(SimAbort::DeadlineExceeded { limit })) => CellOutcome::TimedOut { limit },
            Ok(Err(abort @ SimAbort::CycleLimit { .. })) => CellOutcome::Panicked {
                message: abort.to_string(),
            },
            Err(payload) => CellOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
        };
        if progress {
            let wall = start.elapsed().as_secs_f64();
            let status = match &outcome {
                CellOutcome::Ok(result) => format!(
                    "{:>6.2} Minstr/s",
                    result.instructions() as f64 / wall.max(1e-9) / 1e6
                ),
                CellOutcome::Panicked { .. } => "PANICKED".to_string(),
                CellOutcome::TimedOut { .. } => "TIMED OUT".to_string(),
            };
            eprintln!("[cell] {:<32} {wall:>7.2}s  {status}", self.label());
        }
        outcome
    }
}

/// How one sweep cell resolved. A fault-tolerant sweep never lets a cell
/// take down its siblings: a panicking prefetcher or a blown deadline
/// becomes a value here, reported at the end, while every other cell runs
/// to completion.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The simulation completed normally (boxed: a `SimResult` dwarfs the
    /// failure variants).
    Ok(Box<SimResult>),
    /// The cell's code panicked; the payload message is preserved for the
    /// failure report.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The cell exceeded the per-cell soft deadline.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl CellOutcome {
    /// Whether the cell completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }
}

/// Stringifies a panic payload: `&str` and `String` payloads (everything
/// `panic!` produces) verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "opaque panic payload".to_string())
    }
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale::full()
    }
}

/// Parallel experiment harness: resolves grids of [`CellSpec`]s on a
/// bounded worker pool, computing every reference run (baseline or solo)
/// exactly once in a shared cache.
///
/// Results are bit-for-bit independent of the worker count — see the
/// module docs for the determinism argument.
#[derive(Debug)]
pub struct ParallelHarness {
    config: RunConfig,
    checkpoint: Option<Checkpoint>,
    stats: Option<StatsExport>,
    /// Every completed keyed run of this harness's lifetime.
    cache: HashMap<String, SimResult>,
}

impl ParallelHarness {
    /// Creates a harness that runs every cell at the config's scale,
    /// telemetry level, throttle mode and cell deadline on `config.jobs`
    /// workers, replaying from and recording to its checkpoint and
    /// writing its stats export, when set.
    ///
    /// # Panics
    ///
    /// Panics if `config.jobs` is zero, or if the checkpoint or stats
    /// export file cannot be opened.
    pub fn new(config: &RunConfig) -> Self {
        assert!(config.jobs > 0, "need at least one worker");
        let checkpoint = config.checkpoint.as_ref().map(|path| {
            let checkpoint = Checkpoint::open(path)
                .unwrap_or_else(|e| panic!("BINGO_CHECKPOINT: cannot open {path:?}: {e}"));
            if checkpoint.skipped_lines() + checkpoint.positional_lines() > 0 {
                eprintln!(
                    "[checkpoint] {}: loaded {} cell(s), skipped {} corrupt line(s) and {} \
                     positional line(s) of an older format (their cells re-run)",
                    path.display(),
                    checkpoint.len(),
                    checkpoint.skipped_lines(),
                    checkpoint.positional_lines()
                );
            }
            checkpoint
        });
        ParallelHarness {
            config: config.clone(),
            checkpoint,
            stats: config.stats_export(),
            cache: HashMap::new(),
        }
    }

    /// A spec for `cores` at this harness's scale, telemetry level,
    /// throttle mode, cell deadline and, under the percore throttle, QoS
    /// SLO.
    fn spec(&self, cores: Cores) -> CellSpec {
        let percore = self.config.throttle == ThrottleMode::Percore;
        CellSpec {
            telemetry: self.config.telemetry,
            throttle: self.config.throttle,
            qos_slo: self.config.qos_slo.filter(|_| percore),
            deadline: self.config.cell_timeout,
            ..CellSpec::new(cores, self.config.scale)
        }
    }

    /// The one resolve engine: the outcome of every spec, in input order,
    /// plus the number of checkpoint hits. Each spec is looked up in the
    /// in-memory cache, then in the checkpoint; the rest run on the worker
    /// pool, one simulation per distinct key. Fresh results are then
    /// recorded to the checkpoint, and every completed keyed result,
    /// replays included, to the stats export. Write errors degrade the
    /// checkpoint or export, never the sweep.
    fn resolve(&mut self, specs: &[CellSpec]) -> (Vec<CellOutcome>, usize) {
        let keys: Vec<Option<String>> = specs.iter().map(CellSpec::key).collect();
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; specs.len()];
        let mut hits = 0;
        let mut todo: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let Some(key) = key else {
                todo.push(i);
                continue;
            };
            if let Some(result) = self.cache.get(key) {
                outcomes[i] = Some(CellOutcome::Ok(Box::new(result.clone())));
            } else if let Some(result) = self.checkpoint.as_ref().and_then(|cp| cp.get(key)) {
                hits += 1;
                self.cache.insert(key.clone(), result.clone());
                outcomes[i] = Some(CellOutcome::Ok(Box::new(result)));
            } else if !todo.iter().any(|&j| keys[j].as_ref() == Some(key)) {
                todo.push(i);
            }
        }
        let progress = self.config.progress;
        let ran = parallel_map(self.config.jobs, todo.len(), |j| {
            specs[todo[j]].run_isolated(progress)
        });
        for (&i, outcome) in todo.iter().zip(ran) {
            if let (CellOutcome::Ok(result), Some(key)) = (&outcome, &keys[i]) {
                if let Some(cp) = &self.checkpoint {
                    if let Err(e) = cp.record(key, result) {
                        eprintln!("[checkpoint] write for {key} failed: {e}");
                    }
                }
                self.cache.insert(key.clone(), (**result).clone());
            }
            outcomes[i] = Some(outcome);
        }
        // A repeated key shares the outcome of its first occurrence.
        for i in 0..specs.len() {
            if outcomes[i].is_none() {
                let first = keys.iter().position(|k| *k == keys[i]);
                outcomes[i] = first.and_then(|j| outcomes[j].clone());
            }
        }
        let outcomes: Vec<CellOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every spec was resolved or run"))
            .collect();
        if let Some(stats) = &self.stats {
            for (key, outcome) in keys.iter().zip(&outcomes) {
                if let (Some(key), CellOutcome::Ok(result)) = (key, outcome) {
                    if let Err(e) = stats.record(key, result) {
                        eprintln!("[stats] write for {key} failed: {e}");
                    }
                }
            }
        }
        (outcomes, hits)
    }

    /// The shared grid pipeline: resolves every distinct reference run of
    /// `cells` (first-need order), then the cells whose references all
    /// completed, and derives each evaluation from a cell's result and
    /// its references' results. A cell whose reference failed is not run
    /// and is reported as a failure tied to that reference.
    ///
    /// References are identified by their keys, so a grid cell never
    /// carries a chaos plan (see [`CellSpec::key`]).
    fn evaluate_cells<E>(
        &mut self,
        cells: &[CellSpec],
        derive: impl Fn(&CellSpec, SimResult, Vec<SimResult>) -> E,
    ) -> GridReport<E> {
        let ref_key = |r: &CellSpec| r.key().expect("grid references are keyed");
        let started = Instant::now();
        let mut refs: Vec<CellSpec> = Vec::new();
        for r in cells.iter().flat_map(CellSpec::references) {
            if !refs.iter().any(|q| ref_key(q) == ref_key(&r)) {
                refs.push(r);
            }
        }
        let (ref_outcomes, ref_hits) = self.resolve(&refs);
        let mut failures = Vec::new();
        let mut ref_results: HashMap<String, SimResult> = HashMap::new();
        for (r, outcome) in refs.iter().zip(ref_outcomes) {
            match outcome {
                CellOutcome::Ok(result) => {
                    ref_results.insert(ref_key(r), *result);
                }
                failed => failures.push(CellFailure::new(r, &failed)),
            }
        }

        let mut outcomes: Vec<Option<CellOutcome>> = cells
            .iter()
            .map(|cell| {
                let failed = cell
                    .references()
                    .into_iter()
                    .find(|r| !ref_results.contains_key(&ref_key(r)))?;
                Some(CellOutcome::Panicked {
                    message: format!("not run: its reference run {} failed", failed.label()),
                })
            })
            .collect();
        let runnable: Vec<usize> = (0..cells.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        let specs: Vec<CellSpec> = runnable.iter().map(|&i| cells[i].clone()).collect();
        let (ran, hits) = self.resolve(&specs);
        for (&i, outcome) in runnable.iter().zip(ran) {
            outcomes[i] = Some(outcome);
        }
        if self.config.progress && cells.len() > 1 {
            eprintln!(
                "[grid] {} cells in {:.1}s on {} worker(s)",
                cells.len(),
                started.elapsed().as_secs_f64(),
                self.config.jobs.min(cells.len()),
            );
        }

        let evaluations = cells
            .iter()
            .zip(outcomes)
            .map(
                |(cell, outcome)| match outcome.expect("every cell resolved") {
                    CellOutcome::Ok(result) => {
                        let refs = cell
                            .references()
                            .iter()
                            .map(|r| ref_results[&ref_key(r)].clone())
                            .collect();
                        Some(derive(cell, *result, refs))
                    }
                    failed => {
                        failures.push(CellFailure::new(cell, &failed));
                        None
                    }
                },
            )
            .collect();
        GridReport {
            evaluations,
            failures,
            checkpoint_hits: ref_hits + hits,
        }
    }

    /// Evaluates every (workload, prefetcher) cell of `cells` across the
    /// worker pool and returns the evaluations in input order.
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell failed. Callers that want
    /// the failures as data use [`ParallelHarness::try_evaluate_grid`].
    pub fn evaluate_grid(&mut self, cells: &[(Workload, PrefetcherKind)]) -> Vec<Evaluation> {
        self.try_evaluate_grid(cells).into_complete()
    }

    /// Fault-tolerant grid evaluation: every cell runs panic-isolated and
    /// deadline-bounded, so one bad cell cannot abort the sweep. The
    /// report carries an evaluation slot per input cell (in input order;
    /// `None` where the cell failed) plus one [`CellFailure`] per failed
    /// cell or baseline. With a checkpoint attached, completed cells are
    /// made durable and already-recorded cells are replayed without
    /// re-simulation.
    pub fn try_evaluate_grid(&mut self, cells: &[(Workload, PrefetcherKind)]) -> GridReport {
        let specs: Vec<CellSpec> = cells
            .iter()
            .map(|&(w, k)| self.spec(Cores::Uniform(w, k)))
            .collect();
        self.evaluate_cells(&specs, Evaluation::derive)
    }

    /// Row-major convenience over [`ParallelHarness::evaluate_grid`]:
    /// every kind on every workload, grouped by workload (the result for
    /// `workloads[i]` × `kinds[j]` is at index `i * kinds.len() + j`).
    pub fn evaluate_all(
        &mut self,
        workloads: &[Workload],
        kinds: &[PrefetcherKind],
    ) -> Vec<Evaluation> {
        let cells: Vec<(Workload, PrefetcherKind)> = workloads
            .iter()
            .flat_map(|&w| kinds.iter().map(move |&k| (w, k)))
            .collect();
        self.evaluate_grid(&cells)
    }

    /// Evaluates a single cell (uses the shared baseline cache).
    pub fn evaluate(&mut self, workload: Workload, kind: PrefetcherKind) -> Evaluation {
        self.evaluate_grid(&[(workload, kind)])
            .pop()
            .expect("one cell in, one evaluation out")
    }

    /// Row-major (trace × kind) sweep over captured traces, mirroring
    /// [`ParallelHarness::evaluate_all`].
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell failed.
    pub fn evaluate_trace_grid(
        &mut self,
        traces: &[TraceWorkload],
        kinds: &[PrefetcherKind],
    ) -> Vec<Evaluation> {
        self.try_evaluate_trace_grid(traces, kinds).into_complete()
    }

    /// Fault-tolerant trace sweep, row-major (`traces[i]` × `kinds[j]` at
    /// `i * kinds.len() + j`): each trace's no-prefetcher replay is the
    /// baseline. Strict-policy decode errors surface as failures carrying
    /// the typed error message (byte offset included); lenient traces
    /// complete with their quarantine tallies in [`SimResult::ingest`].
    pub fn try_evaluate_trace_grid(
        &mut self,
        traces: &[TraceWorkload],
        kinds: &[PrefetcherKind],
    ) -> GridReport {
        let specs: Vec<CellSpec> = traces
            .iter()
            .flat_map(|t| kinds.iter().map(|&k| self.spec(Cores::Trace(t.clone(), k))))
            .collect();
        self.evaluate_cells(&specs, Evaluation::derive)
    }

    /// Fault-tolerant multi-core mix sweep: the solo run of every core
    /// slot is resolved first (once per unique slot assignment and
    /// pressure across the whole grid), then each N-core mix, whose
    /// [`FairnessReport`] derives from the mix result and its solos.
    pub fn try_evaluate_mix_grid(&mut self, cells: &[MixCell]) -> GridReport<MixEvaluation> {
        let specs: Vec<CellSpec> = cells
            .iter()
            .map(|c| CellSpec {
                pressure: c.pressure,
                ..self.spec(Cores::Mix(c.mix.clone(), c.cores))
            })
            .collect();
        self.evaluate_cells(&specs, |spec, result, solos| {
            let Cores::Mix(mix, cores) = &spec.cores else {
                unreachable!("mix grids hold mix cells")
            };
            MixEvaluation {
                mix_name: mix.name.clone(),
                cores: *cores,
                pressure: spec.pressure,
                fairness: FairnessReport::compute(&result, &solos),
                result,
            }
        })
    }

    /// Panicking convenience over
    /// [`ParallelHarness::try_evaluate_mix_grid`], mirroring
    /// [`ParallelHarness::evaluate_grid`].
    pub fn evaluate_mix_grid(&mut self, cells: &[MixCell]) -> Vec<MixEvaluation> {
        self.try_evaluate_mix_grid(cells).into_complete()
    }
}

/// The outcome of one prefetcher-on-workload (or on-trace) evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Name of the evaluated cell, [`CellSpec::label`]: `em3d / Bingo`.
    pub label: String,
    /// Name of the workload evaluated, or of the replayed trace (its
    /// capture directory name).
    pub workload: String,
    /// Prefetcher evaluated.
    pub kind: PrefetcherKind,
    /// Coverage / overprediction / accuracy vs the baseline.
    pub coverage: CoverageReport,
    /// Geometric-mean per-core speedup over the baseline.
    pub speedup: f64,
    /// The prefetching run.
    pub result: SimResult,
    /// The baseline run.
    pub baseline: SimResult,
}

impl Evaluation {
    /// Performance improvement as a fraction (paper's Fig. 8 metric).
    pub fn improvement(&self) -> f64 {
        self.speedup - 1.0
    }

    /// Reads a classic or trace cell's result against its baseline.
    fn derive(spec: &CellSpec, result: SimResult, mut refs: Vec<SimResult>) -> Evaluation {
        let (workload, kind) = match &spec.cores {
            Cores::Uniform(w, k) => (w.name().to_string(), *k),
            Cores::Trace(t, k) => (t.name().to_string(), *k),
            Cores::Mix(..) | Cores::Solo(..) => unreachable!("mix cells derive fairness"),
        };
        let baseline = refs.pop().expect("one baseline per cell");
        Evaluation {
            label: spec.label(),
            workload,
            kind,
            coverage: CoverageReport::from_runs(&result, &baseline),
            speedup: result.speedup_over(&baseline),
            result,
            baseline,
        }
    }
}

/// One cell of a multi-core mix grid: a declared [`MixConfig`] run at
/// `cores` cores under a memory-[`Pressure`] level. Core counts past the
/// declared slots replicate the mix pattern cyclically (see
/// [`MixConfig::assignment`]).
#[derive(Debug, Clone)]
pub struct MixCell {
    /// The declared mix.
    pub mix: MixConfig,
    /// Core count of this cell's machine.
    pub cores: usize,
    /// Memory-pressure level applied to the shared resources.
    pub pressure: Pressure,
}

/// The outcome of one completed mix cell.
#[derive(Clone, Debug)]
pub struct MixEvaluation {
    /// Name of the evaluated mix.
    pub mix_name: String,
    /// Core count of the cell's machine.
    pub cores: usize,
    /// Pressure level of the cell.
    pub pressure: Pressure,
    /// Per-core fairness: IPCs, aggregate, min/max ratio, slowdowns
    /// versus the solo runs.
    pub fairness: FairnessReport,
    /// The full mix run.
    pub result: SimResult,
}

/// One failed sweep cell or reference run: which, and why.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The failed spec's [`CellSpec::label`], e.g. `em3d / Faulty@100`
    /// or `solo c0=em3d+Bingo / none`.
    pub label: String,
    /// Human-readable failure reason, including the panic message or the
    /// exceeded deadline.
    pub reason: String,
}

impl CellFailure {
    fn new(spec: &CellSpec, outcome: &CellOutcome) -> CellFailure {
        let reason = match outcome {
            CellOutcome::Ok(_) => unreachable!("successful cells are not failures"),
            CellOutcome::Panicked { message } => format!("panicked: {message}"),
            CellOutcome::TimedOut { limit } => {
                format!("timed out after {:.3}s", limit.as_secs_f64())
            }
        };
        CellFailure {
            label: spec.label(),
            reason,
        }
    }
}

/// The result of a fault-tolerant sweep: per-cell evaluations (in input
/// order, `None` where the cell failed) plus the collected failures.
#[derive(Debug)]
pub struct GridReport<E = Evaluation> {
    /// One slot per input cell, input order; `None` for failed cells.
    pub evaluations: Vec<Option<E>>,
    /// Every failed cell and failed reference run, in discovery order.
    pub failures: Vec<CellFailure>,
    /// Cells and reference runs replayed from the checkpoint instead of
    /// simulated.
    pub checkpoint_hits: usize,
}

impl<E> GridReport<E> {
    /// Whether every cell (and every reference run) completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of cells that produced an evaluation.
    pub fn completed(&self) -> usize {
        self.evaluations.iter().filter(|e| e.is_some()).count()
    }

    /// The multi-line failure report: one line per failed cell with its
    /// label and reason. Empty string when clean.
    pub fn failure_report(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "FAILURE REPORT: {} of {} cell(s) completed, {} failure(s)\n",
            self.completed(),
            self.evaluations.len(),
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!("  {}: {}\n", f.label, f.reason));
        }
        out
    }

    /// Unwraps a clean report into its evaluations.
    ///
    /// # Panics
    ///
    /// Panics — after printing the failure report to stderr — if any cell
    /// failed, turning a faulty sweep into a nonzero process exit *after*
    /// every healthy cell has completed and been checkpointed.
    pub fn into_complete(self) -> Vec<E> {
        if !self.failures.is_empty() {
            eprint!("{}", self.failure_report());
            panic!(
                "{} sweep cell(s) failed; see the failure report above",
                self.failures.len()
            );
        }
        self.evaluations
            .into_iter()
            .map(|e| e.expect("clean reports have every evaluation"))
            .collect()
    }
}

impl GridReport<Evaluation> {
    /// Requires every completed cell to have reported each named
    /// prefetcher metric, turning the silent `None` of
    /// [`SimResult::metric_sum`] into a listed [`CellFailure`]. A typo'd
    /// or renamed metric therefore shows up by name in the failure report
    /// (and fails [`GridReport::into_complete`]) instead of plotting as a
    /// silent zero.
    pub fn require_metrics(&mut self, names: &[&str]) {
        for e in self.evaluations.iter().flatten() {
            for &name in names {
                if e.result.metric_sum(name).is_none() {
                    self.failures.push(CellFailure {
                        label: e.label.clone(),
                        reason: format!(
                            "metric {name:?} missing: {} reported no such metric",
                            e.kind.name()
                        ),
                    });
                }
            }
        }
    }
}

/// Geometric mean over a nonempty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean over a nonempty slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every constructible kind, one representative per variant.
    fn all_kinds() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::None,
            PrefetcherKind::Bop,
            PrefetcherKind::BopAggressive,
            PrefetcherKind::Spp,
            PrefetcherKind::SppAggressive,
            PrefetcherKind::Vldp,
            PrefetcherKind::VldpAggressive,
            PrefetcherKind::Ampm,
            PrefetcherKind::Sms,
            PrefetcherKind::Bingo,
            PrefetcherKind::BingoEntries(4096),
            PrefetcherKind::BingoVote(0.5),
            PrefetcherKind::SingleEvent(EventKind::Offset),
            PrefetcherKind::MultiEvent(3),
            PrefetcherKind::Stride,
            PrefetcherKind::NextLine(2),
            PrefetcherKind::BingoFaulty {
                fault_seed: 9,
                rate: 0.05,
            },
            PrefetcherKind::Faulty { panic_after: 1000 },
        ]
    }

    #[test]
    fn kinds_build_and_have_names() {
        for k in all_kinds() {
            let p = k.build();
            assert!(!p.name().is_empty());
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn storage_from_config_matches_built_prefetcher() {
        for k in all_kinds() {
            assert_eq!(
                k.storage_bits(),
                k.build().storage_bits(),
                "config-level storage of {} disagrees with the built table",
                k.name()
            );
        }
    }

    #[test]
    fn bingo_has_the_largest_headline_storage() {
        let bingo_kb = PrefetcherKind::Bingo.storage_kb();
        for k in [
            PrefetcherKind::Bop,
            PrefetcherKind::Spp,
            PrefetcherKind::Vldp,
        ] {
            assert!(
                k.storage_kb() < bingo_kb,
                "{} should be smaller than Bingo",
                k.name()
            );
        }
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quick_scale_is_smaller() {
        assert!(RunScale::quick().instructions_per_core < RunScale::full().instructions_per_core);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(8, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate worker counts.
        assert_eq!(parallel_map(1, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(parallel_map(64, 1, |i| i), vec![0]);
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
    }

    /// The determinism acceptance test: identical results (speedups,
    /// coverage, miss counts) inline at one worker and interleaved on
    /// three, on a 3 × 3 grid.
    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        let scale = RunScale {
            instructions_per_core: 20_000,
            warmup_per_core: 10_000,
            seed: 7,
        };
        let workloads = [Workload::Em3d, Workload::Streaming, Workload::Mix1];
        let kinds = [
            PrefetcherKind::Bingo,
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
        ];
        let serial = ParallelHarness::new(&quiet(scale, 1)).evaluate_all(&workloads, &kinds);
        let parallel = ParallelHarness::new(&quiet(scale, 3)).evaluate_all(&workloads, &kinds);
        for (se, pe) in serial.iter().zip(&parallel) {
            let what = format!("{} / {}", se.workload, se.kind.name());
            assert_eq!((&se.workload, se.kind), (&pe.workload, pe.kind));
            assert_eq!(se.result, pe.result, "{what}: result differs");
            assert_eq!(se.baseline, pe.baseline, "{what}: baseline differs");
            assert_eq!(
                se.speedup.to_bits(),
                pe.speedup.to_bits(),
                "{what}: speedup differs"
            );
            assert_eq!(se.coverage, pe.coverage, "{what}: coverage differs");
        }
    }

    /// A harness config at `scale` on `jobs` workers with the progress
    /// lines off.
    fn quiet(scale: RunScale, jobs: usize) -> RunConfig {
        RunConfig {
            jobs,
            progress: false,
            ..RunConfig::new(scale)
        }
    }

    fn tiny_scale(seed: u64) -> RunScale {
        RunScale {
            instructions_per_core: 15_000,
            warmup_per_core: 5_000,
            seed,
        }
    }

    /// The tentpole acceptance test: a sweep containing a deliberately
    /// panicking cell completes every other cell and lists the failed
    /// cell with its panic message.
    #[test]
    fn panicking_cell_does_not_abort_the_sweep() {
        let faulty = PrefetcherKind::Faulty { panic_after: 100 };
        let cells = [
            (Workload::Em3d, PrefetcherKind::NextLine(1)),
            (Workload::Em3d, faulty),
            (Workload::Streaming, PrefetcherKind::Stride),
        ];
        let mut h = ParallelHarness::new(&quiet(tiny_scale(11), 2));
        let report = h.try_evaluate_grid(&cells);
        assert!(!report.is_clean());
        assert_eq!(report.evaluations.len(), 3);
        assert!(report.evaluations[0].is_some(), "healthy cell 0 completed");
        assert!(report.evaluations[1].is_none(), "faulty cell has no result");
        assert!(report.evaluations[2].is_some(), "healthy cell 2 completed");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.label, "em3d / Faulty@100");
        assert!(
            failure
                .reason
                .contains("FaultyPrefetcher panicked deliberately"),
            "panic message must be preserved, got: {}",
            failure.reason
        );
        let text = report.failure_report();
        assert!(text.contains("Faulty@100"), "report names the cell: {text}");
        assert!(
            text.contains("FaultyPrefetcher panicked deliberately"),
            "report carries the message: {text}"
        );
    }

    /// The nonzero-exit path: unwrapping a dirty report panics (after the
    /// sweep completed), so `cargo run` sweeps exit nonzero on failures.
    #[test]
    #[should_panic(expected = "sweep cell(s) failed")]
    fn into_complete_panics_on_failed_cells() {
        let cells = [
            (Workload::Streaming, PrefetcherKind::NextLine(1)),
            (
                Workload::Streaming,
                PrefetcherKind::Faulty { panic_after: 0 },
            ),
        ];
        let mut h = ParallelHarness::new(&quiet(tiny_scale(12), 2));
        let _ = h.evaluate_grid(&cells);
    }

    /// A zero deadline times out every cell — including the baseline —
    /// and the sweep still completes with the failures as data.
    #[test]
    fn zero_cell_timeout_times_out_instead_of_hanging() {
        let mut h = ParallelHarness::new(&RunConfig {
            cell_timeout: Some(Duration::ZERO),
            ..quiet(tiny_scale(13), 2)
        });
        let report = h.try_evaluate_grid(&[(Workload::Em3d, PrefetcherKind::NextLine(1))]);
        assert!(report.evaluations.iter().all(Option::is_none));
        let baseline_failure = report
            .failures
            .iter()
            .find(|f| f.label == "em3d / None")
            .expect("the no-prefetcher baseline timed out");
        assert!(
            baseline_failure.reason.contains("timed out"),
            "got: {}",
            baseline_failure.reason
        );
        // The dependent cell is reported as not-run, tied to its baseline.
        let cell_failure = report
            .failures
            .iter()
            .find(|f| f.label == "em3d / NextLine-1")
            .expect("the dependent cell is reported too");
        assert!(
            cell_failure
                .reason
                .contains("its reference run em3d / None failed"),
            "got: {}",
            cell_failure.reason
        );
    }

    /// A generous deadline changes nothing: same bits as no deadline.
    #[test]
    fn generous_cell_timeout_is_bit_for_bit_invisible() {
        let scale = tiny_scale(14);
        let cells = [(Workload::Streaming, PrefetcherKind::Stride)];
        let plain = ParallelHarness::new(&quiet(scale, 1))
            .try_evaluate_grid(&cells)
            .into_complete();
        let timed = ParallelHarness::new(&RunConfig {
            cell_timeout: Some(Duration::from_secs(3600)),
            ..quiet(scale, 1)
        })
        .try_evaluate_grid(&cells)
        .into_complete();
        assert_eq!(plain[0].result, timed[0].result);
        assert_eq!(plain[0].speedup.to_bits(), timed[0].speedup.to_bits());
    }

    #[test]
    fn run_isolated_reports_panics_as_outcomes() {
        let spec = CellSpec::new(
            Cores::Uniform(
                Workload::Streaming,
                PrefetcherKind::Faulty { panic_after: 0 },
            ),
            tiny_scale(15),
        );
        match spec.run_isolated(false) {
            CellOutcome::Panicked { message } => {
                assert!(message.contains("FaultyPrefetcher panicked deliberately"));
            }
            other => panic!("expected a panic outcome, got {other:?}"),
        }
    }

    /// The key strings of every namespace, byte for byte: they name the
    /// lines of existing checkpoint files (`tests/runner_resume.rs` locks
    /// them against a committed file as well).
    #[test]
    fn keys_reproduce_every_namespace() {
        let scale = tiny_scale(7);
        let spec = |cores| CellSpec::new(cores, scale);
        let bingo = Cores::Uniform(Workload::Em3d, PrefetcherKind::Bingo);
        assert_eq!(
            spec(bingo.clone()).key().unwrap(),
            "7/15000/5000/Em3d/Bingo"
        );
        let both = CellSpec {
            telemetry: TelemetryLevel::Counts,
            throttle: ThrottleMode::Feedback,
            ..spec(bingo.clone())
        };
        assert_eq!(
            both.key().unwrap(),
            "7/15000/5000/Em3d/Bingo/telemetry=counts/throttle=feedback"
        );
        let mix = tiny_mix();
        let pressured = CellSpec {
            pressure: Pressure::SCARCE,
            telemetry: TelemetryLevel::Counts,
            throttle: ThrottleMode::Feedback,
            ..spec(Cores::Mix(mix.clone(), 2))
        };
        assert_eq!(
            spec(Cores::Mix(mix.clone(), 2)).key().unwrap(),
            "mix:7/15000/5000/tiny@2/c0=streaming+Stride,c1=stress-storm+None*50%"
        );
        assert!(pressured
            .key()
            .unwrap()
            .ends_with("/pressure=scarce/telemetry=counts/throttle=feedback"));
        assert_eq!(
            spec(Cores::Solo(mix.cores[1], 1)).key().unwrap(),
            "mix-solo:7/15000/5000/c1=stress-storm+None*50%"
        );
        // Trace keys carry the trace's own key (path, policy, content
        // fingerprint) and no seed: the recorded bytes fix the stream.
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-keys")
            .join(std::process::id().to_string());
        bingo_workloads::capture_workload(Workload::Streaming, 1, 1, 64, 16, &dir)
            .expect("capture");
        let trace = TraceWorkload::open(&dir).expect("open capture");
        let traced = Cores::Trace(trace.clone(), PrefetcherKind::Bingo);
        assert_eq!(
            spec(traced.clone()).key().unwrap(),
            format!("trace:{}/15000/5000/Bingo", trace.key())
        );
        assert_eq!(
            spec(traced.clone()).key(),
            CellSpec::new(traced.clone(), tiny_scale(8)).key(),
            "seed must not split trace checkpoints"
        );
        let lenient =
            TraceWorkload::with_policy(&dir, bingo_trace::Policy::Lenient).expect("open capture");
        assert_ne!(
            spec(traced.clone()).key(),
            spec(Cores::Trace(lenient, PrefetcherKind::Bingo)).key()
        );
        std::fs::remove_dir_all(&dir).ok();
        // In every namespace, every run dimension separates keys.
        for cores in [
            bingo.clone(),
            traced,
            Cores::Mix(mix.clone(), 2),
            Cores::Solo(mix.cores[1], 1),
        ] {
            let base = spec(cores.clone());
            let changed = |f: &dyn Fn(&mut CellSpec)| {
                let mut other = base.clone();
                f(&mut other);
                other.key()
            };
            let mut variants = vec![
                changed(&|s| s.scale.instructions_per_core += 1),
                changed(&|s| s.scale.warmup_per_core += 1),
                changed(&|s| s.pressure = Pressure::SCARCE),
                changed(&|s| s.telemetry = TelemetryLevel::Counts),
                changed(&|s| s.telemetry = TelemetryLevel::Trace),
                changed(&|s| s.throttle = ThrottleMode::Static),
                changed(&|s| s.throttle = ThrottleMode::Feedback),
            ];
            if !matches!(cores, Cores::Trace(..)) {
                variants.push(changed(&|s| s.scale.seed += 1));
            }
            for other in variants {
                assert_ne!(base.key(), other, "{}", base.label());
            }
        }
        for other in [
            spec(Cores::Uniform(Workload::Streaming, PrefetcherKind::Bingo)),
            spec(Cores::Uniform(Workload::Em3d, PrefetcherKind::Bop)),
        ] {
            assert_ne!(spec(bingo.clone()).key(), other.key());
        }
        // An SLO override is one more suffix; chaos runs have no key.
        let slo = CellSpec {
            throttle: ThrottleMode::Percore,
            qos_slo: Some(0.5),
            ..spec(bingo.clone())
        };
        assert_eq!(
            slo.key().unwrap(),
            "7/15000/5000/Em3d/Bingo/throttle=percore/slo=0.5"
        );
        let chaotic = CellSpec {
            chaos: Some(ChaosPlan::standard(1)),
            ..spec(bingo)
        };
        assert_eq!(chaotic.key(), None);
    }

    /// A captured trace swept through the parallel harness reproduces the
    /// live generator sweep bit-for-bit (modulo the attached ingest
    /// report, which only replay carries), under trace-namespaced keys
    /// that ignore the seed.
    #[test]
    fn trace_grid_matches_live_generators_bit_for_bit() {
        let scale = tiny_scale(21);
        let workload = Workload::Streaming;
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-grid")
            .join(format!("{}-{}", workload.slug(), std::process::id()));
        let cores = SystemConfig::paper().cores;
        // Slack past warmup + instructions: cores fetch slightly ahead of
        // retirement, so the capture must outrun the replay's appetite.
        let records = scale.warmup_per_core + scale.instructions_per_core + 256;
        bingo_workloads::capture_workload(workload, cores, scale.seed, records, 1024, &dir)
            .expect("capture");
        let trace = TraceWorkload::open(&dir).expect("open capture");
        let key = CellSpec::new(Cores::Trace(trace.clone(), PrefetcherKind::Bingo), scale).key();
        assert!(key.as_ref().unwrap().starts_with("trace:"), "{key:?}");
        let reseeded = CellSpec::new(
            Cores::Trace(trace.clone(), PrefetcherKind::Bingo),
            tiny_scale(22),
        );
        assert_eq!(key, reseeded.key(), "seed must not split trace checkpoints");

        let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine(1)];
        let mut h = ParallelHarness::new(&quiet(scale, 2));
        let report = h.try_evaluate_trace_grid(std::slice::from_ref(&trace), &kinds);
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.completed(), 2);
        let evals = report.into_complete();

        for (e, &kind) in evals.iter().zip(&kinds) {
            assert_eq!(e.workload, trace.name());
            let live = CellSpec::new(Cores::Uniform(workload, kind), scale)
                .run()
                .expect("live run");
            let mut replayed = e.result.clone();
            let ingest = replayed.ingest.take().expect("replay attaches a report");
            assert!(ingest.is_clean(), "pristine capture quarantined: {ingest}");
            // The sim stops pulling once every core retires its budget, so
            // it consumes at most the capture (never wrapping to a second
            // pass) and at least the simulated instruction count.
            assert!(
                ingest.delivered_records <= records * cores as u64
                    && ingest.delivered_records
                        >= (scale.warmup_per_core + scale.instructions_per_core) * cores as u64,
                "replay consumed {} of {} captured records",
                ingest.delivered_records,
                records * cores as u64
            );
            assert_eq!(
                live,
                replayed,
                "{} replay diverged from the live generators",
                kind.name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt strict trace fails its cell with the typed decode error
    /// (byte offset included) while the rest of the sweep completes; the
    /// same bytes under the lenient policy complete with the damage
    /// quarantined and reported.
    #[test]
    fn corrupt_trace_cell_fails_typed_while_lenient_completes() {
        let scale = RunScale {
            instructions_per_core: 4_000,
            warmup_per_core: 1_000,
            seed: 22,
        };
        let workload = Workload::Em3d;
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-corrupt")
            .join(format!("{}", std::process::id()));
        let cores = SystemConfig::paper().cores;
        let records = scale.warmup_per_core + scale.instructions_per_core + 256;
        bingo_workloads::capture_workload(workload, cores, scale.seed, records, 512, &dir)
            .expect("capture");
        // Stomp a payload byte mid-file in core 0's stream.
        let path = dir.join("core0.btrc");
        let mut bytes = std::fs::read(&path).expect("read capture");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite capture");

        let strict = TraceWorkload::open(&dir).expect("open capture");
        let lenient = TraceWorkload::with_policy(&dir, bingo_trace::Policy::Lenient)
            .expect("open capture leniently");
        let mut h = ParallelHarness::new(&quiet(scale, 2));
        let report = h.try_evaluate_trace_grid(&[strict, lenient], &[PrefetcherKind::NextLine(1)]);

        // Strict: baseline and cell fail, reason carries a byte offset.
        assert_eq!(report.failures.len(), 2, "{}", report.failure_report());
        let baseline_failure = report
            .failures
            .iter()
            .find(|f| f.label.ends_with("/ None"))
            .expect("strict baseline fails");
        assert!(
            baseline_failure.reason.contains("byte"),
            "typed error with offset expected, got: {}",
            baseline_failure.reason
        );
        assert!(report.evaluations[0].is_none(), "strict cell has no result");

        // Lenient: completes, and the quarantine is visible in the result.
        let lenient_eval = report.evaluations[1]
            .as_ref()
            .expect("lenient replay completes");
        let ingest = lenient_eval
            .result
            .ingest
            .as_ref()
            .expect("lenient replay attaches a report");
        assert!(
            ingest.quarantined_records > 0,
            "the stomped chunk must be quarantined: {ingest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Workload-scale determinism lock for the telemetry layer: a
    /// telemetry-on sweep produces bit-for-bit the machine results of a
    /// telemetry-off sweep — same IPC, same miss counts, same speedup —
    /// plus an attached report whose counters agree with the LLC's own.
    #[test]
    fn telemetry_is_invisible_at_workload_scale() {
        let scale = RunScale {
            instructions_per_core: 60_000,
            warmup_per_core: 20_000,
            seed: 16,
        };
        let cells = [(Workload::Streaming, PrefetcherKind::Bingo)];
        let off = ParallelHarness::new(&quiet(scale, 1)).evaluate_grid(&cells);
        let on = ParallelHarness::new(&RunConfig {
            telemetry: TelemetryLevel::Counts,
            ..quiet(scale, 1)
        })
        .evaluate_grid(&cells);
        assert!(off[0].result.telemetry.is_none());
        let mut on_result = on[0].result.clone();
        let t = on_result.telemetry.take().expect("report attached");
        assert_eq!(off[0].result, on_result, "telemetry changed the machine");
        let mut on_baseline = on[0].baseline.clone();
        on_baseline.telemetry = None;
        assert_eq!(off[0].baseline, on_baseline);
        assert_eq!(off[0].speedup.to_bits(), on[0].speedup.to_bits());
        // The ledger agrees with the cache's own lifecycle counters —
        // including every per-reason drop class, so a prefetch that never
        // issued is still accounted for exactly once.
        let llc = &on[0].result.llc;
        assert_eq!(t.issued, llc.pf_issued);
        assert_eq!(t.timely, llc.pf_useful);
        assert_eq!(t.late, llc.pf_late);
        assert_eq!(t.unused, llc.pf_useless);
        assert_eq!(t.dropped_duplicate, llc.pf_dropped_duplicate);
        assert_eq!(t.dropped_mshr, llc.pf_dropped_mshr);
        assert_eq!(t.dropped_queue, llc.pf_dropped_queue);
        assert_eq!(t.orphans, 0);
        // Requested = issued + every drop class: nothing leaks between
        // the request and the issue decision.
        assert_eq!(
            llc.pf_requested,
            llc.pf_issued + llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue
        );
        // Bingo attributes its bursts to event kinds.
        let attributed: u64 = ["long", "short"]
            .iter()
            .filter_map(|l| t.source(l))
            .map(|c| c.issued)
            .sum();
        assert!(t.issued > 0, "Bingo must prefetch on em3d");
        assert_eq!(attributed, t.issued, "every Bingo burst is attributed");
    }

    /// A fault-injected Bingo cell with telemetry enabled completes
    /// without panicking and keeps the ledger consistent with the cache —
    /// corrupted metadata must not desynchronize the observability layer.
    #[test]
    fn faulty_bingo_with_telemetry_stays_consistent() {
        let kind = PrefetcherKind::BingoFaulty {
            fault_seed: 5,
            rate: 0.05,
        };
        let mut h = ParallelHarness::new(&RunConfig {
            telemetry: TelemetryLevel::Counts,
            ..quiet(tiny_scale(17), 2)
        });
        let report = h.try_evaluate_grid(&[(Workload::Em3d, kind)]);
        assert!(report.is_clean(), "{}", report.failure_report());
        let evals = report.into_complete();
        let t = evals[0].result.telemetry.as_ref().expect("report attached");
        let llc = &evals[0].result.llc;
        assert_eq!(t.issued, llc.pf_issued);
        assert_eq!(t.timely, llc.pf_useful);
        assert_eq!(t.late, llc.pf_late);
        assert_eq!(t.unused, llc.pf_useless);
        assert_eq!(t.dropped_duplicate, llc.pf_dropped_duplicate);
        assert_eq!(t.dropped_mshr, llc.pf_dropped_mshr);
        assert_eq!(t.dropped_queue, llc.pf_dropped_queue);
        assert_eq!(t.orphans, 0, "fault injection must not orphan records");
    }

    /// The harness-level throttle contract: a feedback-throttled sweep
    /// completes, and because throttling is strictly subtractive, the
    /// throttled Bingo never issues more prefetches than the unthrottled
    /// run of the same cell. The baseline (no prefetcher) is bit-for-bit
    /// unaffected, so speedups stay comparable across modes.
    #[test]
    fn throttled_sweeps_only_subtract_prefetches() {
        let scale = tiny_scale(22);
        let cells = [(Workload::Em3d, PrefetcherKind::Bingo)];
        let plain = ParallelHarness::new(&quiet(scale, 1)).evaluate_grid(&cells);
        let throttled = ParallelHarness::new(&RunConfig {
            throttle: ThrottleMode::Static,
            ..quiet(scale, 1)
        })
        .evaluate_grid(&cells);
        assert_eq!(
            plain[0].baseline, throttled[0].baseline,
            "throttling must not touch the no-prefetcher baseline"
        );
        assert!(
            throttled[0].result.llc.pf_issued <= plain[0].result.llc.pf_issued,
            "static throttle issued more prefetches ({}) than unthrottled ({})",
            throttled[0].result.llc.pf_issued,
            plain[0].result.llc.pf_issued
        );
    }

    /// A telemetry-on sweep resumed from its checkpoint replays the full
    /// result — report included — instead of re-simulating.
    #[test]
    fn checkpoint_replays_telemetry_reports() {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("telemetry-replay-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scale = tiny_scale(19);
        let cells = [(Workload::Streaming, PrefetcherKind::NextLine(1))];
        let run = |path: &std::path::Path| {
            let mut h = ParallelHarness::new(&RunConfig {
                telemetry: TelemetryLevel::Counts,
                checkpoint: Some(path.to_path_buf()),
                ..quiet(scale, 1)
            });
            h.try_evaluate_grid(&cells)
        };
        let fresh = run(&path);
        assert_eq!(fresh.checkpoint_hits, 0);
        let resumed = run(&path);
        assert!(
            resumed.checkpoint_hits >= 2,
            "baseline and cell replay from the checkpoint"
        );
        let a = fresh.into_complete();
        let b = resumed.into_complete();
        assert_eq!(a[0].result, b[0].result);
        assert!(b[0].result.telemetry.is_some(), "report survives the file");
        assert_eq!(a[0].result.telemetry, b[0].result.telemetry);
        let _ = std::fs::remove_file(&path);
    }

    /// A percore harness applies the configured QoS SLO and keys its
    /// cells by it, so a resume replays them instead of re-simulating.
    #[test]
    fn percore_harness_keys_and_resumes_its_qos_slo() {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("qos-slo-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cells = [(Workload::Streaming, PrefetcherKind::NextLine(1))];
        let run = |cell_timeout| {
            let mut h = ParallelHarness::new(&RunConfig {
                throttle: ThrottleMode::Percore,
                qos_slo: Some(0.5),
                checkpoint: Some(path.clone()),
                cell_timeout,
                ..quiet(tiny_scale(23), 2)
            });
            h.try_evaluate_grid(&cells)
        };
        let fresh = run(None);
        assert!(fresh.is_clean(), "{}", fresh.failure_report());
        let text = std::fs::read_to_string(&path).expect("read checkpoint");
        assert_eq!(text.lines().count(), 2, "the cell and its baseline");
        for line in text.lines() {
            assert!(line.contains("/throttle=percore/slo=0.5\""), "{line}");
        }
        // A zero deadline fails any cell that simulates.
        let resumed = run(Some(Duration::ZERO));
        assert!(resumed.is_clean(), "{}", resumed.failure_report());
        assert_eq!(resumed.checkpoint_hits, 2);
        assert_eq!(
            fresh.into_complete()[0].result,
            resumed.into_complete()[0].result
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The metric_sum satellite: a figure requiring a metric no
    /// prefetcher reports gets a named failure instead of a silent zero.
    #[test]
    fn require_metrics_reports_unknown_names() {
        let mut h = ParallelHarness::new(&quiet(tiny_scale(18), 2));
        let mut report =
            h.try_evaluate_grid(&[(Workload::Streaming, PrefetcherKind::MultiEvent(2))]);
        report.require_metrics(&["lookups"]);
        assert!(report.is_clean(), "known metrics pass");
        report.require_metrics(&["no_such_metric"]);
        assert!(!report.is_clean());
        let text = report.failure_report();
        assert!(
            text.contains("\"no_such_metric\""),
            "failure report names the missing metric: {text}"
        );
    }

    /// The stats export captures every completed cell plus each unique
    /// baseline, one JSON line per cell.
    #[test]
    fn stats_export_writes_grid_and_baselines() {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("stats-export-{}.json", std::process::id()));
        let scale = tiny_scale(20);
        let mut h = ParallelHarness::new(&RunConfig {
            telemetry: TelemetryLevel::Counts,
            stats: Some(path.clone()),
            ..quiet(scale, 2)
        });
        let _ = h.evaluate_all(
            &[Workload::Streaming],
            &[PrefetcherKind::NextLine(1), PrefetcherKind::Stride],
        );
        let text = std::fs::read_to_string(&path).expect("read export");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one baseline + two cells");
        assert!(
            lines[0].contains("/None/telemetry=counts\""),
            "{}",
            lines[0]
        );
        assert!(lines.iter().all(|l| l.contains("\"telemetry\":")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_baseline_is_computed_once_and_shared() {
        let scale = RunScale {
            instructions_per_core: 10_000,
            warmup_per_core: 5_000,
            seed: 3,
        };
        let mut h = ParallelHarness::new(&quiet(scale, 2));
        // Many cells over one workload: one baseline, shared by all.
        let evals = h.evaluate_all(
            &[Workload::Streaming],
            &[
                PrefetcherKind::NextLine(1),
                PrefetcherKind::Stride,
                PrefetcherKind::None,
            ],
        );
        assert_eq!(evals.len(), 3);
        assert_eq!(evals[0].baseline, evals[1].baseline);
        // The None cell *is* the baseline run, resolved from the cache.
        assert_eq!(evals[2].result, evals[0].baseline);
    }

    /// A tiny committed-style mix used by the mix-grid unit tests.
    fn tiny_mix() -> MixConfig {
        MixConfig::parse_str(
            "mix tiny\n\
             core 0 workload=streaming prefetcher=stride\n\
             core 1 workload=stress-storm prefetcher=none scale=50%\n\
             end\n",
        )
        .unwrap()
        .remove(0)
    }

    #[test]
    fn mix_grid_runs_solos_and_reports_fairness() {
        let mix = tiny_mix();
        let cells = [MixCell {
            mix: mix.clone(),
            cores: 2,
            pressure: Pressure::NONE,
        }];
        let mut h = ParallelHarness::new(&quiet(tiny_scale(7), 2));
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(report.is_clean(), "{}", report.failure_report());
        let evals = report.into_complete();
        assert_eq!(evals.len(), 1);
        let e = &evals[0];
        assert_eq!(e.mix_name, "tiny");
        assert_eq!(e.cores, 2);
        assert_eq!(e.fairness.core_ipcs.len(), 2);
        assert_eq!(e.fairness.slowdowns.len(), 2);
        // The scaled slot committed half the budget.
        assert_eq!(e.result.cores[0].instructions, 15_000);
        assert_eq!(e.result.cores[1].instructions, 7_500);
        // Fairness metrics recompute from the per-core stats.
        let ipcs = e.result.core_ipcs();
        assert_eq!(e.fairness.aggregate_ipc, ipcs.iter().sum::<f64>());
        assert!(e.fairness.min_max_ipc_ratio > 0.0 && e.fairness.min_max_ipc_ratio <= 1.0);
        // Contention roughly slows a core down relative to its solo run;
        // sub-percent wins are possible at tiny scale (timing quirks),
        // anything larger would mean the solos are wired to the wrong
        // streams.
        for &s in &e.fairness.slowdowns {
            assert!(s > 0.95, "slowdown {s}: mix run beat the solo run by >5%");
        }
    }

    #[test]
    fn mix_grid_replicates_pattern_cyclically_when_ramped() {
        let mix = tiny_mix();
        let cells = [MixCell {
            mix,
            cores: 4,
            pressure: Pressure::CONSTRAINED,
        }];
        let mut h = ParallelHarness::new(&quiet(tiny_scale(9), 2));
        let evals = h.try_evaluate_mix_grid(&cells).into_complete();
        let e = &evals[0];
        assert_eq!(e.result.cores.len(), 4);
        // Slots 2 and 3 repeat the declared pattern (full budget, half
        // budget) with their own per-core streams.
        assert_eq!(e.result.cores[2].instructions, 15_000);
        assert_eq!(e.result.cores[3].instructions, 7_500);
    }

    #[test]
    fn failed_solo_fails_dependent_mix_cells_only() {
        let broken = MixConfig {
            name: "broken".to_string(),
            cores: vec![MixAssignment {
                workload: Workload::Em3d,
                prefetcher: PrefetcherKind::Faulty { panic_after: 100 },
                scale_percent: 100,
            }],
            ramp: None,
        };
        let healthy = tiny_mix();
        let cells = [
            MixCell {
                mix: broken,
                cores: 1,
                pressure: Pressure::NONE,
            },
            MixCell {
                mix: healthy,
                cores: 2,
                pressure: Pressure::NONE,
            },
        ];
        let mut h = ParallelHarness::new(&quiet(tiny_scale(5), 2));
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(!report.is_clean());
        assert!(report.evaluations[0].is_none(), "broken cell has no result");
        assert!(report.evaluations[1].is_some(), "healthy cell completed");
        // The solo failure and the dependent cell failure are both listed.
        let labels: Vec<&str> = report.failures.iter().map(|f| f.label.as_str()).collect();
        assert_eq!(
            labels,
            ["solo c0=em3d+Faulty@100 / none", "broken@1 / none"],
            "{}",
            report.failure_report()
        );
    }
}
