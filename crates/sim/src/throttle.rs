//! Adaptive prefetch throttling driven by resource-pressure feedback.
//!
//! Aggressive spatial prefetching is only profitable while its predictions
//! are accurate and memory bandwidth is plentiful; under pressure the same
//! 31-block bursts evict useful lines and queue demand fills behind
//! prefetch traffic. One `Throttle` watches per-epoch deltas of
//! monotone prefetch and DRAM counters — judging accuracy as
//! used-vs-issued, which is timely, rather than waiting for evictions to
//! settle `pf_useless` — together with the prefetch share of DRAM reads
//! and their queue wait, and degrades the effective prefetch degree one
//! [`ThrottleLevel`] at a time — full burst → raised-vote burst →
//! trigger-block-only → off — with hysteresis in both directions, in the
//! spirit of DSPatch's bandwidth-aware aggressiveness control and
//! Triangel's accuracy gating.
//!
//! Throttling is *strictly subtractive*: at every level the prefetcher's
//! prediction set is a subset of what it would have emitted unthrottled,
//! and training/table state evolves identically. The differential harness
//! checks this against the executable specification.
//!
//! The throttle judges *attribution domains*: sets of cores sharing one
//! ladder, one set of counters and one epoch clock. With one domain over
//! the whole chip ([`ThrottleMode::Feedback`]) one core's useless
//! prefetch storm trips the shared verdict and clamps every core's
//! prefetcher, starving the polite neighbors. [`ThrottleMode::Percore`]
//! gives each core its own domain, judged only on its attributed share of
//! the shared LLC/DRAM, plus a chip-level starvation watchdog that clamps
//! *only* cores hogging prefetch bandwidth when the min/max per-core
//! progress ratio crosses the QoS SLO.

use std::collections::HashMap;

use crate::config::SystemConfig;
use crate::stats::{CoreQos, QosReport};

/// How prefetch throttling is driven, selected by the `BINGO_THROTTLE`
/// knob.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ThrottleMode {
    /// No throttling. The memory system carries no throttle at all, so
    /// disabled throttling is bit-for-bit invisible.
    #[default]
    Off,
    /// A fixed conservative degree ([`ThrottleLevel::RaisedVote`]) with no
    /// feedback — the classic "static degree" operating point: one domain
    /// pinned at that level.
    Static,
    /// Closed-loop control over one domain covering every core: per-epoch
    /// accuracy, lateness, and bandwidth share move the level up and down
    /// the ladder with hysteresis.
    Feedback,
    /// The [`Feedback`](ThrottleMode::Feedback) policy over one domain
    /// *per core*, each judging its own attributed share of the shared
    /// LLC/DRAM, plus the chip-level starvation watchdog. A storm core
    /// throttles alone; polite neighbors keep their full aggressiveness.
    Percore,
}

impl ThrottleMode {
    /// Parses the spelling used by the `BINGO_THROTTLE` knob
    /// (case-insensitive `off` / `static` / `feedback` / `percore`);
    /// `None` on anything else so callers can abort loudly.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ThrottleMode::Off),
            "static" | "1" => Some(ThrottleMode::Static),
            "feedback" | "on" | "2" => Some(ThrottleMode::Feedback),
            "percore" | "3" => Some(ThrottleMode::Percore),
            _ => None,
        }
    }
}

impl std::fmt::Display for ThrottleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleMode::Off => write!(f, "off"),
            ThrottleMode::Static => write!(f, "static"),
            ThrottleMode::Feedback => write!(f, "feedback"),
            ThrottleMode::Percore => write!(f, "percore"),
        }
    }
}

/// Effective prefetcher aggressiveness, ordered from least to most
/// throttled. Every step down the ladder only *removes* candidates from
/// the burst a prefetcher would emit unthrottled — never adds or reorders
/// — so a throttled run's prediction set is always a subset of the
/// unthrottled one.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThrottleLevel {
    /// Unrestricted bursts (identical to no throttling).
    #[default]
    Full,
    /// Bingo raises its short-event vote threshold to
    /// [`RAISED_VOTE_THRESHOLD`](crate::throttle::RAISED_VOTE_THRESHOLD)
    /// so only widely agreed-upon blocks survive; cascade prefetchers
    /// halve their burst.
    RaisedVote,
    /// Only the first predicted block of each burst is issued.
    TriggerOnly,
    /// No prefetches are issued at all (training continues, so recovery
    /// is instant when pressure lifts).
    Stopped,
}

impl ThrottleLevel {
    /// One step more throttled (saturates at [`ThrottleLevel::Stopped`]).
    pub fn degraded(self) -> Self {
        match self {
            ThrottleLevel::Full => ThrottleLevel::RaisedVote,
            ThrottleLevel::RaisedVote => ThrottleLevel::TriggerOnly,
            ThrottleLevel::TriggerOnly | ThrottleLevel::Stopped => ThrottleLevel::Stopped,
        }
    }

    /// One step less throttled (saturates at [`ThrottleLevel::Full`]).
    pub fn upgraded(self) -> Self {
        match self {
            ThrottleLevel::Full | ThrottleLevel::RaisedVote => ThrottleLevel::Full,
            ThrottleLevel::TriggerOnly => ThrottleLevel::RaisedVote,
            ThrottleLevel::Stopped => ThrottleLevel::TriggerOnly,
        }
    }

    /// Ladder position (0 = [`Full`](ThrottleLevel::Full), 3 =
    /// [`Stopped`](ThrottleLevel::Stopped)) — the stable numeric form
    /// reports and checkpoints carry.
    pub fn index(self) -> u8 {
        match self {
            ThrottleLevel::Full => 0,
            ThrottleLevel::RaisedVote => 1,
            ThrottleLevel::TriggerOnly => 2,
            ThrottleLevel::Stopped => 3,
        }
    }
}

impl std::fmt::Display for ThrottleLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleLevel::Full => write!(f, "full"),
            ThrottleLevel::RaisedVote => write!(f, "raised-vote"),
            ThrottleLevel::TriggerOnly => write!(f, "trigger-only"),
            ThrottleLevel::Stopped => write!(f, "stopped"),
        }
    }
}

/// Bingo's effective short-event vote threshold at
/// [`ThrottleLevel::RaisedVote`] (the paper's default is 0.2; 0.75 keeps
/// only blocks most matching footprints agree on).
pub const RAISED_VOTE_THRESHOLD: f64 = 0.75;

/// Demand accesses per evaluation epoch of a throttle with one domain
/// (with `n` domains, each judges every `EPOCH_ACCESSES / n` of its own),
/// and per watchdog epoch.
pub const EPOCH_ACCESSES: u64 = 2048;

/// An epoch whose used-to-issued prefetch ratio falls below this is bad.
///
/// Accuracy is judged *issued-based* — `Δpf_used / Δpf_issued`, a use
/// being a timely or late demand hit on a prefetched line — not on
/// eviction-settled counts: a useless prefetch into an 8 MB LLC is not
/// evicted (hence not counted `pf_useless`) for millions of cycles, far
/// too late to steer anything. Issued-vs-used is
/// timely and converges to true accuracy in steady state; its only bias
/// is the sub-epoch in-flight lag at ramp-up.
pub const ACCURACY_FLOOR: f64 = 0.5;

/// Used-to-issued ratio above which an epoch counts as good (between the
/// floor and this the epoch is neutral: streaks reset, level holds).
pub const ACCURACY_TARGET: f64 = 0.75;

/// Minimum prefetches issued in an epoch for its accuracy to count as
/// evidence; below this the epoch is neutral (sampling noise on a handful
/// of prefetches must not walk the ladder).
pub const MIN_EVIDENCE: u64 = 8;

/// Prefetch share of DRAM reads above which an epoch is bad regardless of
/// accuracy — even accurate prefetching must yield when it starves demand
/// fills of bandwidth.
pub const BANDWIDTH_CEILING: f64 = 0.6;

/// Average DRAM queue wait per read, in multiples of the channel's
/// per-transfer service time, above which the memory system counts as
/// *congested*. Past this point every read is queued behind several others
/// and the channel is the bottleneck, so a wasted prefetch transfer costs
/// a full service slot that a demand fill wanted.
pub const CONGESTION_WAIT_FACTOR: f64 = 2.0;

/// [`ACCURACY_FLOOR`] while the DRAM channel is congested. Moderately
/// accurate prefetching is profitable when bandwidth is spare — a 70%-hit
/// burst still hides latency — but on a saturated channel a useful
/// prefetch only *moves* a transfer earlier while a useless one *adds*
/// a transfer, so the break-even accuracy climbs steeply.
pub const CONGESTED_ACCURACY_FLOOR: f64 = 0.85;

/// [`ACCURACY_TARGET`] while the DRAM channel is congested.
pub const CONGESTED_ACCURACY_TARGET: f64 = 0.95;

/// Consecutive bad epochs before degrading one level.
pub const DEGRADE_AFTER: u32 = 2;

/// Consecutive good epochs before upgrading one level (the starting
/// upgrade patience; failed probes back it off, see
/// [`MAX_UPGRADE_PATIENCE`]).
pub const UPGRADE_AFTER: u32 = 4;

/// Epochs an upgrade must survive without degrading back for the probe to
/// count as successful.
pub const PROBE_WINDOW: u32 = 4;

/// Ceiling on the backed-off upgrade patience. Without backoff the
/// ladder limit-cycles on steadily hostile traffic: good epochs at
/// the throttled level earn an upgrade, the restored aggressiveness is
/// promptly judged bad, and the two full-blast epochs per cycle cost real
/// bandwidth. Doubling the patience after every failed probe makes those
/// probes geometrically rarer, while one survived probe resets patience
/// to [`UPGRADE_AFTER`] so genuine pressure relief still recovers fast.
pub const MAX_UPGRADE_PATIENCE: u32 = 64;

/// Default starvation SLO for [`ThrottleMode::Percore`]: the watchdog
/// flags an epoch when the minimum-to-maximum per-core progress ratio
/// falls *strictly below* this (a ratio exactly at the SLO is
/// compliant). Deliberately loose — heterogeneous mixes have legitimate
/// progress imbalance; the watchdog is a backstop against pathological
/// starvation, not a fairness equalizer. Override with `BINGO_QOS_SLO`.
pub const DEFAULT_QOS_SLO: f64 = 0.25;

/// Consecutive starved watchdog epochs before the watchdog clamps the
/// offending core(s) — the watchdog-side hysteresis, mirroring
/// [`DEGRADE_AFTER`].
pub const WATCHDOG_STARVED_AFTER: u32 = 2;

/// Checks that a starvation SLO is a ratio in `(0, 1]` — the one range
/// check behind [`SystemConfig::validate`], the `BINGO_QOS_SLO` knob and
/// the percore throttle. The error reads `must be a ratio in (0, 1], got
/// <slo>`; callers prefix the name of what they checked.
pub fn check_qos_slo(slo: f64) -> Result<f64, String> {
    if slo.is_finite() && slo > 0.0 && slo <= 1.0 {
        Ok(slo)
    } else {
        Err(format!("must be a ratio in (0, 1], got {slo}"))
    }
}

/// Cumulative ladder activity of one domain, for the [`QosReport`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct ThrottleStats {
    /// Completed evaluation epochs.
    epochs: u64,
    /// Level degradations applied.
    degrades: u64,
    /// Level upgrades applied.
    upgrades: u64,
}

/// Cumulative counters of one domain on the shared LLC/DRAM: what its
/// cores demanded and what its prefetches cost and earned. The counters
/// are monotone — the end-of-warm-up stats reset does not touch them — so
/// epoch deltas are always well defined and no reset hook is needed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct CoreSignals {
    /// Resolved demand accesses — the watchdog's progress proxy.
    demand_accesses: u64,
    /// Prefetches issued toward DRAM.
    pf_issued: u64,
    /// Issued prefetches later demanded (timely or late), credited to the
    /// *issuing* domain whichever core demanded the line.
    pf_used: u64,
    /// DRAM reads carrying this domain's prefetches.
    prefetch_reads: u64,
    /// All DRAM reads attributed to this domain: its demand misses plus
    /// its prefetches.
    reads: u64,
    /// DRAM queue-wait cycles of those reads.
    queue_wait_cycles: u64,
}

impl CoreSignals {
    /// Counter deltas since `prev`.
    fn delta_since(&self, prev: &CoreSignals) -> CoreSignals {
        CoreSignals {
            demand_accesses: self.demand_accesses - prev.demand_accesses,
            pf_issued: self.pf_issued - prev.pf_issued,
            pf_used: self.pf_used - prev.pf_used,
            prefetch_reads: self.prefetch_reads - prev.prefetch_reads,
            reads: self.reads - prev.reads,
            queue_wait_cycles: self.queue_wait_cycles - prev.queue_wait_cycles,
        }
    }
}

/// The per-epoch verdict driving the hysteresis streaks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Verdict {
    Good,
    Neutral,
    Bad,
}

/// One attribution domain: a set of cores sharing one ladder, one set of
/// signals and one epoch clock.
#[derive(Debug)]
struct Domain {
    level: ThrottleLevel,
    /// Demand accesses since the last epoch boundary.
    clock: u64,
    signals: CoreSignals,
    /// `signals` at the last epoch boundary, so each epoch is judged on
    /// its own deltas.
    snap: CoreSignals,
    bad_streak: u32,
    good_streak: u32,
    /// Good epochs currently required for an upgrade; starts at
    /// [`UPGRADE_AFTER`], doubles on every failed probe (capped at
    /// [`MAX_UPGRADE_PATIENCE`]), resets on a survived one.
    upgrade_patience: u32,
    /// An in-flight upgrade probe: the level upgraded to and the epochs
    /// elapsed since. `None` when no probe is outstanding.
    probe: Option<(ThrottleLevel, u32)>,
    stats: ThrottleStats,
}

impl Domain {
    fn new(level: ThrottleLevel) -> Self {
        Domain {
            level,
            clock: 0,
            signals: CoreSignals::default(),
            snap: CoreSignals::default(),
            bad_streak: 0,
            good_streak: 0,
            upgrade_patience: UPGRADE_AFTER,
            probe: None,
            stats: ThrottleStats::default(),
        }
    }

    /// Judges the epoch since the last boundary. `dram_service_cycles` is
    /// the DRAM per-transfer service time, which normalizes queue-wait
    /// cycles into a congestion signal.
    fn judge(&self, dram_service_cycles: u64) -> Verdict {
        let d = self.signals.delta_since(&self.snap);
        if d.pf_issued == 0 {
            // Nothing issued: the prefetcher is quiet (Stopped, or nothing
            // triggered) and any settlements are free wins from earlier
            // epochs. Counts as good, so a stopped prefetcher probes its
            // way back up once pressure could have lifted.
            return Verdict::Good;
        }
        if d.pf_issued < MIN_EVIDENCE {
            return Verdict::Neutral;
        }
        // Issued-based accuracy (see ACCURACY_FLOOR): how much of what the
        // prefetcher asked for this epoch did demand actually want? Can
        // exceed 1.0 when prior epochs' prefetches settle late — that only
        // strengthens a good verdict.
        let accuracy = d.pf_used as f64 / d.pf_issued as f64;
        let bw_share = if d.reads == 0 {
            0.0
        } else {
            d.prefetch_reads as f64 / d.reads as f64
        };
        // Congestion raises the accuracy bar: when reads queue several
        // service slots deep on average, the channel is the bottleneck and
        // wasted transfers directly delay demand fills.
        let congested = d.reads > 0
            && d.queue_wait_cycles as f64 / d.reads as f64
                > CONGESTION_WAIT_FACTOR * dram_service_cycles as f64;
        let (floor, target) = if congested {
            (CONGESTED_ACCURACY_FLOOR, CONGESTED_ACCURACY_TARGET)
        } else {
            (ACCURACY_FLOOR, ACCURACY_TARGET)
        };
        if accuracy < floor || bw_share > BANDWIDTH_CEILING {
            Verdict::Bad
        } else if accuracy >= target {
            Verdict::Good
        } else {
            Verdict::Neutral
        }
    }

    /// Walks the ladder on one epoch's verdict; returns whether the level
    /// changed.
    fn step(&mut self, verdict: Verdict) -> bool {
        let before = self.level;
        // Age the outstanding probe; one that outlives its window at the
        // probed (or better) level succeeded — pressure genuinely lifted.
        if let Some((target, age)) = self.probe.as_mut() {
            *age += 1;
            if *age > PROBE_WINDOW && self.level <= *target {
                self.upgrade_patience = UPGRADE_AFTER;
                self.probe = None;
            }
        }
        match verdict {
            Verdict::Bad => {
                self.good_streak = 0;
                self.bad_streak += 1;
                if self.bad_streak >= DEGRADE_AFTER {
                    self.bad_streak = 0;
                    self.level = self.level.degraded();
                    if self.level != before {
                        self.stats.degrades += 1;
                        if self.probe.take().is_some() {
                            // The upgrade was promptly punished: back off
                            // before probing again.
                            self.upgrade_patience =
                                (self.upgrade_patience * 2).min(MAX_UPGRADE_PATIENCE);
                        }
                    }
                }
            }
            Verdict::Good => {
                self.bad_streak = 0;
                self.good_streak += 1;
                if self.good_streak >= self.upgrade_patience {
                    self.good_streak = 0;
                    self.level = self.level.upgraded();
                    if self.level != before {
                        self.stats.upgrades += 1;
                        self.probe = Some((self.level, 0));
                    }
                }
            }
            Verdict::Neutral => {
                self.bad_streak = 0;
                self.good_streak = 0;
            }
        }
        self.level != before
    }

    /// One externally forced step down the ladder — the starvation
    /// watchdog's clamp. Streaks clear, any outstanding probe is
    /// cancelled, and the upgrade patience doubles (capped at
    /// [`MAX_UPGRADE_PATIENCE`]), so a clamped domain neither climbs
    /// straight back out of the clamp nor probes into it at the old
    /// cadence — repeated interventions get geometrically rarer probes,
    /// exactly like organically failed ones. Returns whether the level
    /// changed.
    fn force_degrade(&mut self) -> bool {
        let before = self.level;
        self.level = self.level.degraded();
        self.bad_streak = 0;
        self.good_streak = 0;
        self.probe = None;
        self.upgrade_patience = (self.upgrade_patience * 2).min(MAX_UPGRADE_PATIENCE);
        if self.level == before {
            return false;
        }
        self.stats.degrades += 1;
        true
    }
}

/// Prefetch throttling over N attribution domains.
///
/// Owned by the memory system unless the mode is [`ThrottleMode::Off`],
/// and fed one call per event: a resolved demand access
/// ([`on_access`](Throttle::on_access)), an issued prefetch, a demand
/// DRAM read, a used prefetch and an unused eviction. Every
/// `max(EPOCH_ACCESSES / domains, 4 * MIN_EVIDENCE)` accesses of its own
/// cores a domain judges its epoch and walks its [`ThrottleLevel`] ladder.
///
/// - `feedback` is one domain covering every core.
/// - `percore` is one domain per core, plus the starvation [`Watchdog`]
///   and a map from prefetched block to issuing core, so a use credits
///   the core that issued the prefetch.
/// - `static` is one domain pinned at [`ThrottleLevel::RaisedVote`].
#[derive(Debug)]
pub(crate) struct Throttle {
    domains: Vec<Domain>,
    /// Accesses per domain epoch. The domain count scales it down so a
    /// domain judges as often, on as much of its own evidence, as one
    /// domain over the whole chip; the floor keeps a many-core epoch out
    /// of sampling-noise territory.
    epoch_accesses: u64,
    /// DRAM per-transfer service time, for the congestion signal (see
    /// [`CONGESTION_WAIT_FACTOR`]).
    dram_service_cycles: u64,
    /// Static mode: the level never moves and no epoch is judged.
    pinned: bool,
    /// With a domain per core, the prefetched blocks in flight or resident
    /// mapped to their issuing domain. Entries close on use or on unused
    /// eviction. `None` with one domain, which every use credits.
    owner: Option<HashMap<u64, usize>>,
    watchdog: Option<Watchdog>,
}

impl Throttle {
    /// The throttle for `mode` on the machine `cfg`, or `None` for
    /// [`ThrottleMode::Off`]: disabled throttling carries no throttle at
    /// all, which keeps it bit-for-bit invisible. The percore watchdog
    /// uses `cfg.qos_slo` (default [`DEFAULT_QOS_SLO`]); congestion is
    /// judged against the configured DRAM transfer time.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.qos_slo` is not a ratio in `(0, 1]`.
    pub(crate) fn new(mode: ThrottleMode, cfg: &SystemConfig) -> Option<Self> {
        let domains = match mode {
            ThrottleMode::Off => return None,
            ThrottleMode::Static | ThrottleMode::Feedback => 1,
            ThrottleMode::Percore => cfg.cores,
        };
        let level = match mode {
            ThrottleMode::Static => ThrottleLevel::RaisedVote,
            _ => ThrottleLevel::Full,
        };
        let percore = mode == ThrottleMode::Percore;
        let slo = check_qos_slo(cfg.qos_slo.unwrap_or(DEFAULT_QOS_SLO))
            .unwrap_or_else(|e| panic!("QoS SLO {e}"));
        Some(Throttle {
            domains: (0..domains).map(|_| Domain::new(level)).collect(),
            epoch_accesses: (EPOCH_ACCESSES / domains as u64).max(4 * MIN_EVIDENCE),
            dram_service_cycles: cfg.dram.transfer_cycles,
            pinned: mode == ThrottleMode::Static,
            owner: percore.then(HashMap::new),
            watchdog: percore.then(|| Watchdog::new(slo, domains)),
        })
    }

    /// The domain `core` belongs to.
    #[inline]
    fn domain(&self, core: usize) -> usize {
        if self.domains.len() == 1 {
            0
        } else {
            core
        }
    }

    /// The current level of `core`'s prefetcher.
    pub(crate) fn level(&self, core: usize) -> ThrottleLevel {
        self.domains[self.domain(core)].level
    }

    /// Counts one resolved demand access by `core`: ticks its domain's
    /// epoch clock and, with a watchdog, the chip-wide watchdog clock.
    /// Returns whether any level changed — the caller then re-pushes every
    /// core's level to its prefetcher (cheap: epoch boundaries only).
    #[inline]
    pub(crate) fn on_access(&mut self, core: usize) -> bool {
        let d = self.domain(core);
        let domain = &mut self.domains[d];
        domain.signals.demand_accesses += 1;
        domain.clock += 1;
        let mut changed = domain.clock >= self.epoch_accesses && self.epoch_boundary(d);
        if let Some(watchdog) = self.watchdog.as_mut() {
            watchdog.accesses += 1;
            if watchdog.accesses >= EPOCH_ACCESSES {
                changed |= self.watchdog_epoch();
            }
        }
        changed
    }

    /// The once-per-epoch slow path of [`on_access`](Throttle::on_access),
    /// kept out of line so the per-access counter bump inlines into the
    /// memory system's demand path without the judging code.
    #[inline(never)]
    fn epoch_boundary(&mut self, d: usize) -> bool {
        let domain = &mut self.domains[d];
        domain.clock = 0;
        domain.stats.epochs += 1;
        if self.pinned {
            return false;
        }
        let verdict = domain.judge(self.dram_service_cycles);
        domain.snap = domain.signals;
        domain.step(verdict)
    }

    /// Chip-level watchdog epoch: window deltas, decision, clamps. Out of
    /// line for the same reason as [`Throttle::epoch_boundary`].
    #[inline(never)]
    fn watchdog_epoch(&mut self) -> bool {
        let watchdog = self
            .watchdog
            .as_mut()
            .expect("watchdog epochs need a watchdog");
        watchdog.accesses = 0;
        let mut delta = std::mem::take(&mut watchdog.delta);
        for ((delta, prev), domain) in delta.iter_mut().zip(&mut watchdog.prev).zip(&self.domains) {
            *delta = domain.signals.delta_since(prev);
            *prev = domain.signals;
        }
        let levels: Vec<ThrottleLevel> = self.domains.iter().map(|d| d.level).collect();
        let clamp = watchdog.decide(&levels, &delta);
        watchdog.delta = delta;
        let mut changed = false;
        for i in clamp {
            if self.domains[i].force_degrade() {
                watchdog.stats.clamps += 1;
                changed = true;
            }
        }
        changed
    }

    /// Attributes an issued prefetch of `block` (and its tagged DRAM read,
    /// which waited `queue_wait` cycles) to `core`'s domain.
    pub(crate) fn note_pf_issued(&mut self, core: usize, block: u64, queue_wait: u64) {
        let d = self.domain(core);
        let s = &mut self.domains[d].signals;
        s.pf_issued += 1;
        s.prefetch_reads += 1;
        s.reads += 1;
        s.queue_wait_cycles += queue_wait;
        if let Some(owner) = self.owner.as_mut() {
            owner.insert(block, d);
        }
    }

    /// Credits a demanded prefetched line (timely or late) to the domain
    /// that issued it.
    pub(crate) fn note_pf_used(&mut self, block: u64) {
        let d = match self.owner.as_mut() {
            Some(owner) => match owner.remove(&block) {
                Some(d) => d,
                None => return,
            },
            None => 0,
        };
        self.domains[d].signals.pf_used += 1;
    }

    /// Closes the attribution entry of a prefetched line evicted unused.
    pub(crate) fn note_pf_evicted_unused(&mut self, block: u64) {
        if let Some(owner) = self.owner.as_mut() {
            owner.remove(&block);
        }
    }

    /// Attributes a demand DRAM read (and its queue wait) to `core`'s
    /// domain.
    pub(crate) fn note_demand_read(&mut self, core: usize, queue_wait: u64) {
        let d = self.domain(core);
        let s = &mut self.domains[d].signals;
        s.reads += 1;
        s.queue_wait_cycles += queue_wait;
    }

    /// The end-of-run [`QosReport`] — per-core signals, ladder activity and
    /// watchdog counters; `None` without a watchdog (every mode but
    /// `percore`).
    pub(crate) fn report(&self) -> Option<QosReport> {
        let watchdog = self.watchdog.as_ref()?;
        Some(QosReport {
            cores: self
                .domains
                .iter()
                .map(|d| CoreQos {
                    demand_accesses: d.signals.demand_accesses,
                    pf_issued: d.signals.pf_issued,
                    pf_used: d.signals.pf_used,
                    prefetch_reads: d.signals.prefetch_reads,
                    reads: d.signals.reads,
                    epochs: d.stats.epochs,
                    degrades: d.stats.degrades,
                    upgrades: d.stats.upgrades,
                    final_level: d.level.index(),
                })
                .collect(),
            watchdog_epochs: watchdog.stats.epochs,
            watchdog_starved_epochs: watchdog.stats.starved_epochs,
            watchdog_clamps: watchdog.stats.clamps,
            watchdog_exempted: watchdog.stats.exempted,
        })
    }
}

/// Cumulative starvation-watchdog activity, for diagnostics and the
/// [`QosReport`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct WatchdogStats {
    /// Completed chip-level watchdog epochs.
    epochs: u64,
    /// Epochs whose min/max progress ratio fell below the SLO.
    starved_epochs: u64,
    /// Forced level degradations applied to offender cores.
    clamps: u64,
    /// Offenders spared by the never-all-stopped arbiter rule.
    exempted: u64,
}

/// The chip-level starvation watchdog over the per-core domains of
/// [`ThrottleMode::Percore`].
///
/// Every [`EPOCH_ACCESSES`] resolved demand accesses *chip-wide* it
/// compares per-core progress (resolved demand accesses in the window, the
/// in-simulator proxy for per-core IPC). When the minimum-to-maximum
/// ratio over active cores falls strictly below the SLO for
/// [`WATCHDOG_STARVED_AFTER`] consecutive epochs, it force-degrades only
/// the cores consuming more than their fair share of prefetch bandwidth —
/// never the starved core, and never the last core standing (see
/// [`Watchdog::decide`]).
#[derive(Debug)]
struct Watchdog {
    slo: f64,
    accesses: u64,
    /// Every domain's signals at the last watchdog epoch.
    prev: Vec<CoreSignals>,
    /// The window deltas of the current epoch, kept so that an epoch
    /// reuses this buffer instead of allocating one.
    delta: Vec<CoreSignals>,
    starved_streak: u32,
    stats: WatchdogStats,
}

impl Watchdog {
    fn new(slo: f64, cores: usize) -> Self {
        Watchdog {
            slo,
            accesses: 0,
            prev: vec![CoreSignals::default(); cores],
            delta: vec![CoreSignals::default(); cores],
            starved_streak: 0,
            stats: WatchdogStats::default(),
        }
    }

    /// The cores to clamp after one epoch window. `levels` are the cores'
    /// current throttle levels, `delta` their window counter deltas.
    /// Separated from the counter plumbing so the edge cases (exact-SLO
    /// ratio, all-cores-offending) are unit-testable in isolation.
    fn decide(&mut self, levels: &[ThrottleLevel], delta: &[CoreSignals]) -> Vec<usize> {
        self.stats.epochs += 1;
        let n = levels.len();
        // A core with zero window progress is idle (it met its
        // instruction target), not starved — contention in this machine
        // slows demand down, it cannot stop it entirely. Fewer than two
        // active cores means there is no contention question to judge.
        let active: Vec<usize> = (0..n).filter(|&i| delta[i].demand_accesses > 0).collect();
        if active.len() < 2 {
            self.starved_streak = 0;
            return Vec::new();
        }
        let progress = |i: usize| delta[i].demand_accesses;
        let max = active.iter().map(|&i| progress(i)).max().expect("active");
        let starved_core = *active
            .iter()
            .min_by_key(|&&i| (progress(i), i))
            .expect("active");
        // Strict comparison: a ratio exactly at the SLO is compliant.
        if progress(starved_core) as f64 / max as f64 >= self.slo {
            self.starved_streak = 0;
            return Vec::new();
        }
        self.stats.starved_epochs += 1;
        self.starved_streak += 1;
        if self.starved_streak < WATCHDOG_STARVED_AFTER {
            return Vec::new();
        }
        self.starved_streak = 0;
        let total_pf: u64 = delta.iter().map(|d| d.prefetch_reads).sum();
        if total_pf == 0 {
            // Imbalance without prefetch traffic is not ours to fix.
            return Vec::new();
        }
        // Offenders: every core (other than the starved one) drawing more
        // than its fair 1/n share of the window's prefetch bandwidth;
        // if nobody crosses that bar, the single largest consumer.
        let fair = total_pf as f64 / n as f64;
        let mut clamp: Vec<usize> = (0..n)
            .filter(|&i| i != starved_core && delta[i].prefetch_reads as f64 > fair)
            .collect();
        if clamp.is_empty() {
            let top = (0..n)
                .filter(|&i| i != starved_core && delta[i].prefetch_reads > 0)
                .max_by_key(|&i| (delta[i].prefetch_reads, std::cmp::Reverse(i)));
            match top {
                Some(i) => clamp.push(i),
                None => return Vec::new(), // all prefetch traffic is the starved core's own
            }
        }
        // Never clamp the whole chip to Stopped: if applying the clamps
        // would leave every core at Stopped, spare the offender whose
        // window accuracy is best (ties: fewer prefetch reads, then lower
        // index) so at least one prefetcher keeps probing for recovery.
        let clamped_level = |i: usize, clamp: &[usize]| {
            if clamp.contains(&i) {
                levels[i].degraded()
            } else {
                levels[i]
            }
        };
        if (0..n).all(|i| clamped_level(i, &clamp) == ThrottleLevel::Stopped) {
            let accuracy = |i: usize| {
                if delta[i].pf_issued == 0 {
                    1.0
                } else {
                    delta[i].pf_used as f64 / delta[i].pf_issued as f64
                }
            };
            let spare = clamp
                .iter()
                .copied()
                .reduce(|best, i| {
                    match accuracy(i).total_cmp(&accuracy(best)).then(
                        delta[best]
                            .prefetch_reads
                            .cmp(&delta[i].prefetch_reads)
                            .then(best.cmp(&i)),
                    ) {
                        std::cmp::Ordering::Greater => i,
                        _ => best,
                    }
                })
                .expect("clamp set is non-empty");
            clamp.retain(|&i| i != spare);
            self.stats.exempted += 1;
        }
        clamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throttle for `mode` on a `cores`-core paper machine with the
    /// given starvation SLO.
    fn throttle(mode: ThrottleMode, cores: usize, slo: f64) -> Throttle {
        let mut cfg = SystemConfig::paper().with_cores(cores);
        cfg.qos_slo = Some(slo);
        Throttle::new(mode, &cfg).expect("an enabled mode attaches a throttle")
    }

    /// A one-domain feedback throttle.
    fn feedback() -> Throttle {
        throttle(ThrottleMode::Feedback, 1, DEFAULT_QOS_SLO)
    }

    fn stats(t: &Throttle) -> ThrottleStats {
        t.domains[0].stats
    }

    /// Sets domain 0's cumulative counters to `sig` (keeping its access
    /// count) and ticks one epoch of accesses; returns the new level if it
    /// changed.
    fn tick_epoch(t: &mut Throttle, sig: &CoreSignals) -> Option<ThrottleLevel> {
        let domain = &mut t.domains[0];
        domain.signals = CoreSignals {
            demand_accesses: domain.signals.demand_accesses,
            ..*sig
        };
        let before = t.level(0);
        for _ in 0..t.epoch_accesses {
            t.on_access(0);
        }
        (t.level(0) != before).then_some(t.level(0))
    }

    /// The verdict on one epoch whose counter deltas are `delta`, on the
    /// paper machine's DRAM.
    fn verdict(delta: CoreSignals) -> Verdict {
        let domain = Domain {
            signals: delta,
            ..Domain::new(ThrottleLevel::Full)
        };
        domain.judge(SystemConfig::paper().dram.transfer_cycles)
    }

    fn signals_with(used: u64, unused: u64) -> CoreSignals {
        CoreSignals {
            pf_issued: used + unused,
            pf_used: used,
            ..CoreSignals::default()
        }
    }

    #[test]
    fn parse_accepts_knob_spellings() {
        assert_eq!(ThrottleMode::parse("off"), Some(ThrottleMode::Off));
        assert_eq!(ThrottleMode::parse(" STATIC "), Some(ThrottleMode::Static));
        assert_eq!(
            ThrottleMode::parse("feedback"),
            Some(ThrottleMode::Feedback)
        );
        assert_eq!(
            ThrottleMode::parse("Feedback"),
            Some(ThrottleMode::Feedback)
        );
        assert_eq!(ThrottleMode::parse("none"), Some(ThrottleMode::Off));
        assert_eq!(ThrottleMode::parse("percore"), Some(ThrottleMode::Percore));
        assert_eq!(
            ThrottleMode::parse(" PerCore "),
            Some(ThrottleMode::Percore)
        );
        assert_eq!(ThrottleMode::parse("3"), Some(ThrottleMode::Percore));
        assert_eq!(ThrottleMode::parse("aggressive"), None);
        assert_eq!(ThrottleMode::parse(""), None);
        assert_eq!(ThrottleMode::Percore.to_string(), "percore");
    }

    #[test]
    fn ladder_is_monotone_and_saturating() {
        let mut l = ThrottleLevel::Full;
        let mut seen = vec![l];
        for _ in 0..5 {
            l = l.degraded();
            seen.push(l);
        }
        assert_eq!(
            &seen[..4],
            &[
                ThrottleLevel::Full,
                ThrottleLevel::RaisedVote,
                ThrottleLevel::TriggerOnly,
                ThrottleLevel::Stopped
            ]
        );
        assert_eq!(l, ThrottleLevel::Stopped, "degrade saturates");
        assert_eq!(ThrottleLevel::Full.upgraded(), ThrottleLevel::Full);
        assert!(ThrottleLevel::Full < ThrottleLevel::Stopped);
    }

    #[test]
    fn off_mode_attaches_nothing() {
        assert!(Throttle::new(ThrottleMode::Off, &SystemConfig::paper()).is_none());
    }

    #[test]
    fn the_epoch_clock_scales_with_the_domain_count() {
        assert_eq!(feedback().epoch_accesses, EPOCH_ACCESSES);
        let percore = |cores| throttle(ThrottleMode::Percore, cores, DEFAULT_QOS_SLO);
        assert_eq!(percore(1).epoch_accesses, EPOCH_ACCESSES);
        assert_eq!(percore(4).epoch_accesses, EPOCH_ACCESSES / 4);
        assert_eq!(percore(128).epoch_accesses, 4 * MIN_EVIDENCE);
        // Feedback judges every core as one domain, with no owner map.
        let mut t = throttle(ThrottleMode::Feedback, 4, DEFAULT_QOS_SLO);
        assert_eq!(t.domains.len(), 1);
        t.note_pf_issued(3, 7, 0);
        t.note_pf_used(7);
        t.note_pf_used(8);
        assert_eq!(t.domains[0].signals.pf_used, 2, "every use is the domain's");
        assert!(t.report().is_none(), "only percore reports QoS");
    }

    #[test]
    fn static_mode_pins_raised_vote() {
        let mut t = throttle(ThrottleMode::Static, 1, DEFAULT_QOS_SLO);
        assert_eq!(t.level(0), ThrottleLevel::RaisedVote);
        for epoch in 1..=10u64 {
            // Terrible accuracy, epoch after epoch.
            assert_eq!(tick_epoch(&mut t, &signals_with(0, epoch * 1000)), None);
        }
        assert_eq!(t.level(0), ThrottleLevel::RaisedVote);
        assert_eq!(stats(&t).epochs, 10);
    }

    #[test]
    fn sustained_inaccuracy_degrades_to_stopped() {
        let mut t = feedback();
        let mut changes = Vec::new();
        for epoch in 1..=8u64 {
            // Fresh useless prefetches every epoch.
            if let Some(l) = tick_epoch(&mut t, &signals_with(0, epoch * 100)) {
                changes.push(l);
            }
        }
        assert_eq!(
            changes,
            vec![
                ThrottleLevel::RaisedVote,
                ThrottleLevel::TriggerOnly,
                ThrottleLevel::Stopped
            ],
            "one degrade per {DEGRADE_AFTER} bad epochs, saturating"
        );
        assert_eq!(stats(&t).degrades, 3);
    }

    #[test]
    fn quiet_epochs_let_a_stopped_prefetcher_recover() {
        let mut t = feedback();
        for epoch in 1..=6u64 {
            tick_epoch(&mut t, &signals_with(0, epoch * 100));
        }
        assert_eq!(t.level(0), ThrottleLevel::Stopped);
        // Stopped: no new prefetch activity at all -> quiet epochs are
        // good, and every UPGRADE_AFTER of them climb one level.
        let frozen = signals_with(0, 600);
        for _ in 0..u64::from(UPGRADE_AFTER) * 3 {
            tick_epoch(&mut t, &frozen);
        }
        assert_eq!(t.level(0), ThrottleLevel::Full, "full recovery");
        assert_eq!(stats(&t).upgrades, 3);
    }

    #[test]
    fn accurate_epochs_hold_full_aggressiveness() {
        let mut t = feedback();
        for epoch in 1..=10u64 {
            tick_epoch(&mut t, &signals_with(epoch * 100, 0));
        }
        assert_eq!(t.level(0), ThrottleLevel::Full);
        assert_eq!(stats(&t).degrades, 0);
        assert_eq!(verdict(signals_with(100, 0)), Verdict::Good);
    }

    #[test]
    fn bandwidth_hogging_is_bad_even_when_accurate() {
        let mut t = feedback();
        for epoch in 1..=4u64 {
            let sig = CoreSignals {
                prefetch_reads: epoch * 90, // ...but 90% of all reads
                reads: epoch * 100,
                ..signals_with(epoch * 100, 0) // perfectly accurate
            };
            tick_epoch(&mut t, &sig);
        }
        assert!(t.level(0) > ThrottleLevel::Full, "bandwidth ceiling fired");
        let hog = CoreSignals {
            prefetch_reads: 90,
            reads: 100,
            ..signals_with(100, 0)
        };
        assert_eq!(verdict(hog), Verdict::Bad);
    }

    #[test]
    fn sustained_issue_without_use_is_bad() {
        // Issuing epoch after epoch with demand never touching a prefetched
        // block is exactly what a useless storm looks like — the in-flight
        // lag excuse only lasts a fraction of one epoch.
        let mut t = feedback();
        for epoch in 1..=6u64 {
            tick_epoch(&mut t, &signals_with(0, epoch * 100));
        }
        assert_eq!(t.level(0), ThrottleLevel::Stopped);
        assert_eq!(stats(&t).degrades, 3);
    }

    #[test]
    fn tiny_samples_are_neutral_evidence() {
        let mut t = feedback();
        for epoch in 1..=6u64 {
            // A trickle below MIN_EVIDENCE, all of it useless: too little
            // to walk the ladder either way.
            tick_epoch(&mut t, &signals_with(0, epoch * (MIN_EVIDENCE - 1)));
        }
        assert_eq!(t.level(0), ThrottleLevel::Full);
        assert_eq!(stats(&t).degrades + stats(&t).upgrades, 0);
        assert_eq!(verdict(signals_with(0, MIN_EVIDENCE - 1)), Verdict::Neutral);
    }

    #[test]
    fn congestion_raises_the_accuracy_bar() {
        // 80% accuracy: comfortably good on an idle channel, bad on one
        // where reads queue several service slots deep.
        let run = |queue_wait_per_read: u64| {
            let mut t = feedback();
            let mut sig = CoreSignals::default();
            for _ in 0..6 {
                sig.pf_issued += 100;
                sig.pf_used += 80;
                sig.reads += 100;
                sig.queue_wait_cycles += 100 * queue_wait_per_read;
                tick_epoch(&mut t, &sig);
            }
            t
        };
        let idle = run(0);
        assert_eq!(idle.level(0), ThrottleLevel::Full);
        assert_eq!(stats(&idle).degrades, 0);
        // Far past CONGESTION_WAIT_FACTOR times the paper's transfer time.
        let congested = run(100);
        assert!(congested.level(0) > ThrottleLevel::Full);
        assert!(stats(&congested).degrades >= 2);
        let epoch = |queue_wait_cycles| CoreSignals {
            reads: 100,
            queue_wait_cycles,
            ..signals_with(80, 20)
        };
        assert_eq!(verdict(epoch(0)), Verdict::Good);
        assert_eq!(verdict(epoch(100 * 100)), Verdict::Bad);
    }

    #[test]
    fn failed_probes_back_off_exponentially() {
        // Steadily hostile traffic: every epoch spent at Full issues
        // useless prefetches (Bad), every throttled epoch is accurate
        // (Good). Without backoff the ladder limit-cycles, spending a
        // third of all epochs at full blast; with it the probes must get
        // geometrically rarer.
        let mut t = feedback();
        let mut sig = CoreSignals::default();
        let mut full_epochs = 0u32;
        for _ in 0..120 {
            sig.pf_issued += 100;
            if t.level(0) == ThrottleLevel::Full {
                full_epochs += 1; // nothing used: Bad
            } else {
                sig.pf_used += 100; // accurate when throttled: Good
            }
            tick_epoch(&mut t, &sig);
        }
        // Limit-cycling would put ~40 of 120 epochs at Full; backoff caps
        // the early oscillation plus ever-rarer probes well below that.
        assert!(
            full_epochs <= 16,
            "{full_epochs} full-blast epochs despite hostile traffic"
        );
        assert!(stats(&t).degrades > stats(&t).upgrades);
    }

    #[test]
    fn surviving_a_probe_restores_upgrade_patience() {
        let mut t = feedback();
        let mut sig = CoreSignals::default();
        // Drive to Stopped with a couple of failed probes to inflate the
        // patience.
        for _ in 0..40 {
            sig.pf_issued += 100;
            tick_epoch(&mut t, &sig);
        }
        assert_eq!(t.level(0), ThrottleLevel::Stopped);
        // Pressure lifts: quiet epochs from here on. Recovery to Full must
        // complete despite the earlier failures — each survived probe
        // resets the patience, so the climb accelerates back to the
        // UPGRADE_AFTER cadence instead of paying the inflated patience at
        // every rung.
        let mut recovery = 0u32;
        while t.level(0) != ThrottleLevel::Full {
            tick_epoch(&mut t, &sig);
            recovery += 1;
            assert!(recovery < 300, "recovery stalled at {}", t.level(0));
        }
        assert!(
            recovery <= MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8,
            "recovery took {recovery} epochs"
        );
    }

    #[test]
    fn force_degrade_steps_cancels_probe_and_backs_off() {
        let mut d = Domain::new(ThrottleLevel::Full);
        assert!(d.force_degrade());
        assert_eq!(d.level, ThrottleLevel::RaisedVote);
        assert_eq!(d.upgrade_patience, UPGRADE_AFTER * 2);
        assert_eq!(d.stats.degrades, 1);
        assert!(d.force_degrade());
        assert!(d.force_degrade());
        assert_eq!(d.level, ThrottleLevel::Stopped);
        // Saturated: no level change, still backs the patience off.
        assert!(!d.force_degrade());
        assert_eq!(d.stats.degrades, 3);
        assert_eq!(d.upgrade_patience, UPGRADE_AFTER * 16);
        assert!(d.probe.is_none());
    }

    /// Backed-off patience must saturate, never wrap, over runs long
    /// enough for thousands of failed probes.
    #[test]
    fn probe_backoff_saturates_without_overflow_on_long_runs() {
        let mut t = feedback();
        let mut sig = CoreSignals::default();
        for _ in 0..20_000 {
            sig.pf_issued += 100;
            if t.level(0) != ThrottleLevel::Full {
                sig.pf_used += 100; // accurate only while throttled
            }
            tick_epoch(&mut t, &sig);
            assert!(t.domains[0].upgrade_patience <= MAX_UPGRADE_PATIENCE);
        }
        // Probes became geometrically rare but never stopped entirely.
        assert!(stats(&t).upgrades > 0);
        assert!(stats(&t).degrades >= stats(&t).upgrades);
        // And hammering force_degrade on top cannot wrap either.
        for _ in 0..10_000 {
            t.domains[0].force_degrade();
            assert!(t.domains[0].upgrade_patience <= MAX_UPGRADE_PATIENCE);
        }
    }

    // ---- per-core domains + starvation watchdog ---------------------

    /// Ticks `t` for one full chip epoch with per-core access shares
    /// given in `share` (must sum to EPOCH_ACCESSES), interleaved
    /// round-robin so per-core and chip clocks advance together.
    fn tick_chip_epoch(t: &mut Throttle, share: &[u64]) {
        assert_eq!(share.iter().sum::<u64>(), EPOCH_ACCESSES);
        let mut left: Vec<u64> = share.to_vec();
        let mut remaining: u64 = left.iter().sum();
        while remaining > 0 {
            for (core, l) in left.iter_mut().enumerate() {
                if *l > 0 {
                    *l -= 1;
                    remaining -= 1;
                    t.on_access(core);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ratio in (0, 1]")]
    fn percore_rejects_slo_above_one() {
        let _ = throttle(ThrottleMode::Percore, 2, 1.5);
    }

    #[test]
    fn storm_core_throttles_alone() {
        let mut t = throttle(ThrottleMode::Percore, 2, DEFAULT_QOS_SLO);
        // Each chip epoch is split between the two cores, so a per-core
        // epoch takes two outer iterations; 16 iterations give each
        // domain 8 epochs — enough for the full ladder descent.
        for _ in 0..16 {
            // Core 0: accurate prefetching. Core 1: pure waste. Both also
            // carry demand reads so the bandwidth share stays moderate.
            for _ in 0..(EPOCH_ACCESSES / 2) {
                t.note_pf_issued(0, u64::MAX, 0);
                t.note_pf_used(u64::MAX);
                t.note_pf_issued(1, 0, 0);
                for core in 0..2 {
                    t.note_demand_read(core, 0);
                    t.note_demand_read(core, 0);
                }
            }
            tick_chip_epoch(&mut t, &[EPOCH_ACCESSES / 2, EPOCH_ACCESSES / 2]);
        }
        assert_eq!(t.level(0), ThrottleLevel::Full, "polite core untouched");
        assert_eq!(t.level(1), ThrottleLevel::Stopped, "storm core clamped");
        assert!(t.domains[1].stats.degrades >= 3);
        assert_eq!(t.domains[0].stats.degrades, 0);
    }

    #[test]
    fn percore_report_carries_attribution_and_levels() {
        let mut t = throttle(ThrottleMode::Percore, 2, DEFAULT_QOS_SLO);
        t.note_pf_issued(0, 7, 5);
        t.note_pf_used(7);
        t.note_demand_read(1, 9);
        t.on_access(0);
        t.on_access(1);
        let r = t.report().expect("percore reports QoS");
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.cores[0].pf_issued, 1);
        assert_eq!(r.cores[0].pf_used, 1);
        assert_eq!(r.cores[0].prefetch_reads, 1);
        assert_eq!(r.cores[0].demand_accesses, 1);
        assert_eq!(r.cores[1].reads, 1);
        assert_eq!(r.cores[1].pf_issued, 0);
        assert_eq!(r.cores[0].final_level, 0);
    }

    #[test]
    fn used_prefetches_credit_the_issuing_core() {
        let mut t = throttle(ThrottleMode::Percore, 2, DEFAULT_QOS_SLO);
        let used = |t: &Throttle, core: usize| t.domains[core].signals.pf_used;
        t.note_pf_issued(1, 42, 0);
        // Core 0 demands the line core 1 prefetched: the credit is the
        // issuer's.
        t.note_pf_used(42);
        assert_eq!(used(&t, 1), 1);
        assert_eq!(used(&t, 0), 0);
        // Closed entries do not double-credit.
        t.note_pf_used(42);
        assert_eq!(used(&t, 1), 1);
        // Unused evictions close silently.
        t.note_pf_issued(0, 43, 0);
        t.note_pf_evicted_unused(43);
        t.note_pf_used(43);
        assert_eq!(used(&t, 0), 0);
    }

    fn delta(progress: u64, pf_reads: u64) -> CoreSignals {
        CoreSignals {
            demand_accesses: progress,
            pf_issued: pf_reads,
            pf_used: 0,
            prefetch_reads: pf_reads,
            reads: progress + pf_reads,
            queue_wait_cycles: 0,
        }
    }

    /// An epoch whose progress ratio lands *exactly* on the SLO threshold
    /// is compliant — only strictly-below counts as starved.
    #[test]
    fn progress_ratio_exactly_at_the_slo_is_compliant() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(0.5, 2);
        for _ in 0..4 {
            let clamp = wd.decide(&levels, &[delta(1000, 500), delta(2000, 0)]);
            assert!(clamp.is_empty());
        }
        assert_eq!(
            wd.stats.starved_epochs, 0,
            "ratio == SLO must not count as starved"
        );
        // One access less — with the fast core hogging the prefetch
        // bandwidth — and the same windows are starved epochs.
        let clamp = wd.decide(&levels, &[delta(999, 0), delta(2000, 500)]);
        assert_eq!(wd.stats.starved_epochs, 1);
        assert_eq!(wd.starved_streak, 1, "first starved epoch arms hysteresis");
        assert!(clamp.is_empty(), "hysteresis defers the clamp");
        let clamp = wd.decide(&levels, &[delta(999, 0), delta(2000, 500)]);
        assert_eq!(clamp, vec![1], "second consecutive starved epoch clamps");
    }

    #[test]
    fn watchdog_clamps_only_bandwidth_hogs_never_the_starved_core() {
        let levels = [ThrottleLevel::Full; 3];
        let mut wd = Watchdog::new(0.5, 3);
        // Core 0 starves; cores 1 and 2 split prefetch traffic, but only
        // core 2 exceeds the fair 1/3 share.
        let window = [delta(100, 0), delta(2000, 100), delta(2000, 500)];
        wd.decide(&levels, &window);
        assert_eq!(wd.decide(&levels, &window), vec![2]);
    }

    #[test]
    fn compliant_epochs_reset_the_starved_streak() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(0.5, 2);
        let starving = [delta(100, 0), delta(2000, 800)];
        let fine = [delta(2000, 0), delta(2000, 800)];
        wd.decide(&levels, &starving);
        wd.decide(&levels, &fine);
        assert!(
            wd.decide(&levels, &starving).is_empty(),
            "a compliant epoch between two starved ones must disarm the clamp"
        );
    }

    #[test]
    fn idle_cores_are_not_starved_cores() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(0.5, 2);
        // Core 0 finished its instruction target: zero progress, but that
        // is idleness, not starvation.
        for _ in 0..4 {
            assert!(wd
                .decide(&levels, &[delta(0, 0), delta(2000, 800)])
                .is_empty());
        }
        assert_eq!(wd.stats.starved_epochs, 0);
    }

    /// Simultaneous degrade pressure on every core must never clamp the
    /// whole chip to Stopped — the best-accuracy offender is spared.
    #[test]
    fn watchdog_never_clamps_every_core_to_stopped() {
        let mut t = throttle(ThrottleMode::Percore, 3, 0.9);
        // Core 0 is Stopped, cores 1 and 2 at TriggerOnly, so any further
        // clamp on both would stop the whole chip.
        for _ in 0..3 {
            t.domains[0].force_degrade();
        }
        for core in 1..3 {
            t.domains[core].force_degrade();
            t.domains[core].force_degrade();
        }
        // Core 0 starves; cores 1 and 2 both hog prefetch bandwidth, but
        // core 2 is the (relatively) accurate one.
        let mut window = [delta(100, 0), delta(2000, 900), delta(2000, 900)];
        window[2].pf_used = 500;
        let levels: Vec<ThrottleLevel> = (0..3).map(|i| t.level(i)).collect();
        assert_eq!(levels[0], ThrottleLevel::Stopped);
        let wd = t.watchdog.as_mut().expect("percore has a watchdog");
        wd.decide(&levels, &window); // arm hysteresis
        let clamp = wd.decide(&levels, &window);
        assert_eq!(clamp, vec![1], "the accurate offender is spared");
        assert_eq!(wd.stats.exempted, 1);
        for i in clamp {
            t.domains[i].force_degrade();
        }
        assert!(
            (0..3).any(|i| t.level(i) != ThrottleLevel::Stopped),
            "some core must stay un-stopped"
        );
    }

    /// The recovery-time bound the chaos property suite leans on: once
    /// signals turn clean, a clamped core returns to Full within
    /// `MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8`
    /// of its own epochs, even from Stopped with fully backed-off
    /// patience.
    #[test]
    fn clamped_core_recovers_within_the_bounded_epoch_count() {
        let mut t = throttle(ThrottleMode::Percore, 2, DEFAULT_QOS_SLO);
        for _ in 0..6 {
            t.domains[1].force_degrade(); // Stopped, patience saturated
        }
        assert_eq!(t.level(1), ThrottleLevel::Stopped);
        let bound = MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8;
        let mut epochs = 0u32;
        while t.level(1) != ThrottleLevel::Full {
            // Clean epoch: no prefetch activity on core 1 at all (the
            // prefetcher is stopped), both cores progressing equally; each
            // chip epoch is one epoch of each core's domain.
            tick_chip_epoch(&mut t, &[EPOCH_ACCESSES / 2, EPOCH_ACCESSES / 2]);
            epochs += 1;
            assert!(
                epochs <= 2 * bound,
                "recovery exceeded the bound at {}",
                t.level(1)
            );
        }
        assert!(t.domains[1].stats.upgrades >= 3);
    }
}
