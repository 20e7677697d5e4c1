//! Per-core wake scheduling is unobservable: every cell here runs twice,
//! once with the run loop's scheduling on (cores sleep until they can
//! change, their slept cycles replayed in closed form) and once in
//! lock-step (`with_fast_forward(false)`: every core steps every cycle),
//! and the two `SimResult`s must be equal field for field. The
//! long-running `throttle` group is the exception: it runs scheduled only
//! and is there for the golden lock below.
//!
//! The matrix covers every synthetic and stress workload under no
//! prefetcher, Bingo and a baseline, at each memory-pressure preset and
//! throttle mode, plus the committed contention mixes at their unequal
//! per-core targets, a `.btrc` replay, and a machine whose shrunk LLC MSHR
//! file makes cores stall on LLC MSHRs — the one regime where a stalled
//! core's retries contend with other cores at the shared LLC banks.
//!
//! Every cell's result is also locked against the committed golden table
//! `tests/corpus/golden/scheduler_matrix.txt`: one line per cell with its
//! label, the FNV-1a digest of the result's `Debug` form, chip IPC and
//! LLC MPKI. On a mismatch the test names the differing cells and writes
//! the fresh table to `target/golden/scheduler_matrix.txt`; copying that
//! file over the committed one re-blesses a deliberate behaviour change.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bingo_bench::{MixConfig, PrefetcherKind, Pressure};
use bingo_sim::{InstrSource, SimResult, System, SystemConfig, TelemetryLevel, ThrottleMode};
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

const SEED: u64 = 42;
const WARMUP: u64 = 2_000;
/// Per-core budget; cores get unequal shares of it so they finish apart.
const BUDGET: u64 = 4_000;
/// Per-core share of [`BUDGET`] in percent, cycled over the cores.
const SHARES: [u64; 4] = [100, 55, 80, 30];

const KINDS: [PrefetcherKind; 3] = [
    PrefetcherKind::None,
    PrefetcherKind::Bingo,
    PrefetcherKind::Bop,
];

const GOLDEN: &str = "tests/corpus/golden/scheduler_matrix.txt";
const FRESH: &str = "target/golden/scheduler_matrix.txt";

/// Every line seen so far in this process: the committed table with each
/// finished group's fresh lines swapped in. The test functions run
/// concurrently, so a failing group writes this union, and the last one
/// to fail leaves every failed group's lines in the fresh table.
static SEEN: Mutex<Option<BTreeMap<String, String>>> = Mutex::new(None);

/// A stable 64-bit digest (FNV-1a) of every field of a result.
fn digest(result: &SimResult) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The golden line of one cell; whitespace in the label becomes `_` so
/// the columns split on whitespace.
fn golden_line(label: &str, result: &SimResult) -> (String, String) {
    let label = label.split_whitespace().collect::<Vec<_>>().join("_");
    let line = format!(
        "{label} {:016x} {:.6} {:.6}",
        digest(result),
        result.aggregate_ipc(),
        result.llc_mpki()
    );
    (label, line)
}

/// The committed table, keyed by label (`#` lines are comments).
fn committed() -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let label = l.split_whitespace().next().expect("non-empty line");
            (label.to_string(), l.to_string())
        })
        .collect()
}

/// Checks the cells of `group` (their labels all start with `group/`)
/// against the committed table: same labels, same lines.
fn check_golden(group: &str, cells: &[(String, SimResult)]) {
    let prefix = format!("{group}/");
    let golden = committed();
    let fresh: BTreeMap<String, String> = cells
        .iter()
        .map(|(label, result)| golden_line(&format!("{prefix}{label}"), result))
        .collect();
    let expected: BTreeMap<&String, &String> = golden
        .iter()
        .filter(|(label, _)| label.starts_with(&prefix))
        .collect();
    let mut differing: Vec<String> = fresh
        .iter()
        .filter(|(label, line)| expected.get(label) != Some(line))
        .map(|(label, _)| label.clone())
        .collect();
    differing.extend(
        expected
            .keys()
            .filter(|label| !fresh.contains_key(label.as_str()))
            .map(|label| label.to_string()),
    );
    let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    let seen = seen.get_or_insert_with(|| golden.clone());
    seen.retain(|label, _| !label.starts_with(&prefix));
    seen.extend(fresh);
    if differing.is_empty() {
        return;
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(FRESH);
    std::fs::create_dir_all(out.parent().expect("has a parent")).expect("create target/golden");
    let mut table = String::from(
        "# label fnv1a(format!(\"{result:?}\")) chip_ipc llc_mpki\n\
         # Locked by tests/scheduler_equivalence.rs; re-bless by copying the\n\
         # fresh table it writes to target/golden/ over this file.\n",
    );
    for line in seen.values() {
        table.push_str(line);
        table.push('\n');
    }
    std::fs::write(&out, table).expect("write fresh golden table");
    panic!(
        "{} cell(s) of {group} differ from {GOLDEN}: {}\nfresh table written to {}",
        differing.len(),
        differing.join(", "),
        out.display()
    );
}

fn targets(cores: usize) -> Vec<u64> {
    (0..cores)
        .map(|c| BUDGET * SHARES[c % SHARES.len()] / 100)
        .collect()
}

/// One cell's machine and streams, buildable twice.
struct Cell {
    cfg: SystemConfig,
    sources: Box<dyn Fn() -> Vec<Box<dyn InstrSource>>>,
    kinds: Vec<PrefetcherKind>,
    targets: Vec<u64>,
    warmup: u64,
    throttle: ThrottleMode,
}

impl Cell {
    fn live(cfg: SystemConfig, workloads: Vec<Workload>, kinds: Vec<PrefetcherKind>) -> Self {
        let targets = targets(cfg.cores);
        Cell {
            cfg,
            sources: Box::new(move || {
                workloads
                    .iter()
                    .enumerate()
                    .map(|(core, w)| w.source_for_core(core, SEED))
                    .collect()
            }),
            kinds,
            targets,
            warmup: WARMUP,
            throttle: ThrottleMode::Off,
        }
    }

    fn run(&self, fast_forward: bool) -> SimResult {
        System::new_heterogeneous(
            self.cfg,
            (self.sources)(),
            self.kinds.iter().map(|k| k.build()).collect(),
            &self.targets,
        )
        .with_warmup(self.warmup)
        .with_telemetry(TelemetryLevel::Counts)
        .with_throttle(self.throttle)
        .with_fast_forward(fast_forward)
        .run()
    }

    /// Asserts scheduled == lock-step and returns the scheduled result.
    fn assert_equivalent(&self, label: &str) -> SimResult {
        let scheduled = self.run(true);
        let lockstep = self.run(false);
        assert_eq!(scheduled, lockstep, "scheduling diverged on {label}");
        scheduled
    }
}

/// Every workload × prefetcher × pressure preset under one throttle mode.
fn workload_matrix(throttle: ThrottleMode) {
    let mut cells = Vec::new();
    for pressure in Pressure::LADDER {
        let mut cfg = SystemConfig::paper();
        pressure.apply(&mut cfg);
        for w in Workload::ALL.into_iter().chain(Workload::STRESS) {
            for kind in KINDS {
                let mut cell = Cell::live(cfg, vec![w; cfg.cores], vec![kind; cfg.cores]);
                cell.throttle = throttle;
                let label = format!("{w}/{}/{}", kind.name(), pressure.name);
                let result = cell.assert_equivalent(&format!("{label}/throttle={throttle}"));
                cells.push((label, result));
            }
        }
    }
    check_golden(&format!("matrix-{throttle}"), &cells);
}

#[test]
fn scheduling_is_bit_for_bit_unthrottled() {
    workload_matrix(ThrottleMode::Off);
}

#[test]
fn scheduling_is_bit_for_bit_under_feedback_throttling() {
    workload_matrix(ThrottleMode::Feedback);
}

#[test]
fn scheduling_is_bit_for_bit_under_percore_throttling() {
    workload_matrix(ThrottleMode::Percore);
}

/// The committed contention mixes at their declared core counts and
/// per-slot budgets, under every pressure preset, unthrottled and per-core
/// throttled.
#[test]
fn scheduling_is_bit_for_bit_on_contention_mixes() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("configs/mixes/contention.mix");
    let mixes = MixConfig::parse_file(&path).expect("committed mixes parse");
    assert!(!mixes.is_empty());
    let mut cells = Vec::new();
    for mix in &mixes {
        let cores = mix.core_count();
        let slots: Vec<_> = (0..cores).map(|c| mix.assignment(c)).collect();
        for pressure in Pressure::LADDER {
            let mut cfg = SystemConfig::paper().with_cores(cores);
            pressure.apply(&mut cfg);
            for throttle in [ThrottleMode::Off, ThrottleMode::Percore] {
                let mut cell = Cell::live(
                    cfg,
                    slots.iter().map(|s| s.workload).collect(),
                    slots.iter().map(|s| s.prefetcher).collect(),
                );
                cell.targets = slots.iter().map(|s| s.instructions(BUDGET)).collect();
                cell.throttle = throttle;
                let label = format!("{}/{}/throttle={throttle}", mix.name, pressure.name);
                let result = cell.assert_equivalent(&format!("mix {label}"));
                cells.push((label, result));
            }
        }
    }
    check_golden("mixes", &cells);
}

/// Ladders that move: cells long enough past a warm-up that trains Bingo
/// for its prefetches to be judged, so throttle levels change mid-run and
/// the lock sees every throttle mode's decisions, not only its attached
/// bookkeeping. Two-core machines keep the cost down. Each cell must show
/// its throttle at work: a feedback cell issues fewer prefetches than its
/// `off` twin, a percore cell degrades or upgrades some core, and the
/// watchdog cell clamps. Stress Thrash is left out: its prefetches are
/// accurate, so no ladder ever moves on it.
///
/// Unlike the other groups, these cells run only scheduled: at 150 k
/// instructions per core the lock-step twin costs about six times the
/// scheduled run in a debug build, and the point here is the golden lock.
#[test]
fn scheduling_is_bit_for_bit_while_throttle_ladders_move() {
    use Workload::*;
    const LADDER_WARMUP: u64 = 100_000;
    const LADDER_BUDGET: u64 = 50_000;
    let mixes = MixConfig::parse_file(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("configs/mixes/contention.mix"),
    )
    .expect("committed mixes parse");
    let polite_vs_storm = mixes
        .iter()
        .find(|m| m.name == "polite-vs-storm")
        .expect("contention.mix declares polite-vs-storm");
    let slots: Vec<_> = (0..2).map(|c| polite_vs_storm.assignment(c)).collect();
    let bingo = vec![PrefetcherKind::Bingo; 2];
    // (label, pressure, workloads, prefetchers, throttle modes)
    let mut machines = Vec::new();
    for pressure in [Pressure::CONSTRAINED, Pressure::SCARCE] {
        for w in [StressStorm, StressChase, StressFlip] {
            machines.push((
                format!("{w}/Bingo"),
                pressure,
                vec![w; 2],
                bingo.clone(),
                true,
            ));
        }
    }
    machines.push((
        "polite-vs-storm".to_string(),
        Pressure::CONSTRAINED,
        slots.iter().map(|s| s.workload).collect(),
        slots.iter().map(|s| s.prefetcher).collect(),
        true,
    ));
    // A storm next to a streamer that outpaces it fourfold and draws most
    // of the prefetch bandwidth: the watchdog's clamp case.
    machines.push((
        "stress-flip+streaming/Bingo".to_string(),
        Pressure::CONSTRAINED,
        vec![StressFlip, Streaming],
        bingo.clone(),
        false,
    ));
    let mut cells = Vec::new();
    let mut clamps = 0;
    for (name, pressure, workloads, kinds, with_feedback) in machines {
        let mut cfg = SystemConfig::paper().with_cores(2);
        pressure.apply(&mut cfg);
        let run = |throttle: ThrottleMode| {
            let mut cell = Cell::live(cfg, workloads.clone(), kinds.clone());
            cell.targets = vec![LADDER_BUDGET; 2];
            cell.warmup = LADDER_WARMUP;
            cell.throttle = throttle;
            let label = format!("{name}/{}/throttle={throttle}", pressure.name);
            (label, cell.run(true))
        };
        let percore = run(ThrottleMode::Percore);
        let qos = percore.1.qos.as_ref().expect("percore attaches a report");
        let moves: u64 = qos.cores.iter().map(|c| c.degrades + c.upgrades).sum();
        assert!(moves > 0, "{}: no per-core ladder moved", percore.0);
        clamps += qos.watchdog_clamps;
        cells.push(percore);
        if with_feedback {
            let off = run(ThrottleMode::Off);
            let feedback = run(ThrottleMode::Feedback);
            assert!(
                feedback.1.llc.pf_issued < off.1.llc.pf_issued,
                "{}: feedback issued {} prefetches, no fewer than off's {}",
                feedback.0,
                feedback.1.llc.pf_issued,
                off.1.llc.pf_issued
            );
            cells.push(off);
            cells.push(feedback);
        }
    }
    assert!(clamps > 0, "no cell exercised a watchdog clamp");
    check_golden("throttle", &cells);
}

/// A `.btrc` capture replayed through the trace reader, whose op runs
/// feed the op crank.
#[test]
fn scheduling_is_bit_for_bit_on_trace_replay() {
    let dir = std::env::temp_dir()
        .join("bingo-scheduler-equivalence")
        .join(format!("em3d-{}", std::process::id()));
    let cores = SystemConfig::paper().cores;
    let records = WARMUP + BUDGET + 256;
    capture_workload(Workload::Em3d, cores, SEED, records, 1 << 12, &dir).expect("capture em3d");
    let trace = TraceWorkload::open(&dir).expect("open capture");
    let mut cell = Cell::live(
        SystemConfig::paper(),
        vec![Workload::Em3d; cores],
        vec![PrefetcherKind::Bingo; cores],
    );
    cell.sources = Box::new(move || trace.sources(cores).expect("replay sources"));
    let result = cell.assert_equivalent("em3d replay");
    assert_eq!(
        result
            .ingest
            .expect("replay reports ingestion")
            .quarantined_records,
        0
    );
    std::fs::remove_dir_all(&dir).ok();
    check_golden("replay", &[("em3d/Bingo".to_string(), result)]);
}

/// A shrunk LLC MSHR file on four cores with unequal targets and a
/// warm-up, on the paper's four LLC banks and on a single one: cores stall
/// on LLC MSHRs while others hit in the LLC, so a waiter's retries delay
/// other cores' lookups at the shared banks. No pressure preset ever fills
/// the paper's 256-entry LLC MSHR file, so without this cell the
/// LLC-waiter wake rule would go untested.
#[test]
fn scheduling_is_bit_for_bit_with_llc_mshr_stalls() {
    use Workload::*;
    let mixes = [
        [StressThrash, StressChase, StressFlip, DataServing],
        [StressChase, SatSolver, Em3d, Mix3],
        [StressFlip, Em3d, Mix5, DataServing],
        [Mix2, Mix3, Mix4, Mix5],
        [Zeus, Mix4, StressFlip, Em3d],
    ];
    let mut cells = Vec::new();
    for banks in [SystemConfig::paper().llc.banks, 1] {
        let mut cfg = SystemConfig::paper();
        cfg.llc.mshrs = 12;
        cfg.llc_mshrs_reserved_for_demand = 4;
        cfg.llc.banks = banks;
        for workloads in mixes {
            let cell = Cell::live(
                cfg,
                workloads.to_vec(),
                vec![PrefetcherKind::Bop; cfg.cores],
            );
            let names: Vec<_> = workloads.iter().map(|w| w.name()).collect();
            let label = format!("{}/BOP/banks={banks}", names.join("+"));
            let result = cell.assert_equivalent(&label);
            assert!(
                result.llc.demand_mshr_stalls > 0,
                "{label}: the shrunk LLC MSHR file never stalled a demand"
            );
            cells.push((label, result));
        }
    }
    check_golden("llc-mshr", &cells);
}
