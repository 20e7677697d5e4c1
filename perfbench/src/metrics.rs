//! Turning finished passes into the named metrics of BENCHMARK.json.

use std::collections::{BTreeMap, HashMap};

use bingo_bench::PrefetcherKind;
use bingo_sim::{CacheStats, SimResult};

use crate::cells::{Cell, CellRun, Role, Streams};
use crate::suite::Suite;
use crate::traced::CellTrace;

/// The paper's Fig. 8 headline: Bingo's gmean IPC gain over no
/// prefetching, in percent.
const PAPER_GAIN_PCT: f64 = 60.0;

/// The prefetchers with per-kind layer metrics, by metric-name slug.
const KINDS: [(&str, PrefetcherKind); 6] = [
    ("bop", PrefetcherKind::Bop),
    ("spp", PrefetcherKind::Spp),
    ("vldp", PrefetcherKind::Vldp),
    ("ampm", PrefetcherKind::Ampm),
    ("sms", PrefetcherKind::Sms),
    ("bingo", PrefetcherKind::Bingo),
];

/// Named metrics with units, in output order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        self.0.push((name.into(), value + 0.0, unit));
    }
}

/// One sweep over every cell of a suite.
#[derive(Debug)]
pub struct Pass {
    pub runs: Vec<CellRun>,
    pub wall_s: f64,
}

impl Pass {
    /// Wall time of the sweep less the machine building the workers did,
    /// which belongs to set-up.
    pub fn sim_seconds(&self, jobs: usize) -> f64 {
        let build: f64 = self.runs.iter().map(|r| r.build_s).sum();
        self.wall_s - build / jobs as f64
    }

    /// Simulated instructions, warm-up included, of every finished cell.
    pub fn instructions(&self, cells: &[Cell]) -> u64 {
        cells
            .iter()
            .zip(&self.runs)
            .filter_map(|(cell, run)| run.result.as_ref().ok().map(|r| cell.instructions(r)))
            .sum()
    }

    /// Busy share of the workers over the sweep's wall time.
    pub fn worker_util(&self, jobs: usize) -> f64 {
        let busy: f64 = self.runs.iter().map(|r| r.build_s + r.run_s).sum();
        busy / (jobs as f64 * self.wall_s)
    }

    /// Seconds between the first worker running out of cells and the
    /// last one finishing.
    pub fn straggler_s(&self) -> f64 {
        let mut last = HashMap::new();
        for run in &self.runs {
            let entry = last.entry(run.thread).or_insert(run.finished);
            *entry = (*entry).max(run.finished);
        }
        let first_idle = last.values().min();
        let end = last.values().max();
        match (first_idle, end) {
            (Some(a), Some(b)) => (*b - *a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn gmean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated end-to-end metrics of one pass's results (`None` for a
/// failed cell, which the metrics skip).
pub fn fidelity(cells: &[Cell], results: &[Option<&SimResult>], out: &mut Metrics) {
    let baseline = |group: &str| {
        cells
            .iter()
            .zip(results)
            .find(|(c, _)| c.role == Role::Baseline && c.group == group)
            .and_then(|(_, r)| *r)
    };
    let finished = || {
        cells
            .iter()
            .zip(results)
            .filter_map(|(c, r)| r.map(|r| (c, r)))
    };
    let gain = gmean(
        finished()
            .filter(|(c, _)| c.role == Role::Headline)
            .filter_map(|(c, r)| baseline(&c.group).map(|b| r.speedup_over(b))),
    );
    let mpki_errors: Vec<f64> = finished()
        .filter(|(c, _)| c.role == Role::Baseline)
        .map(|(c, r)| {
            let expected = c.expected_mpki();
            (r.llc_mpki() - expected).abs() / expected * 100.0
        })
        .collect();
    let prefetching = || finished().filter(|(c, _)| c.role != Role::Baseline);
    out.push(
        "bingo_gain_gap_pp",
        ((gain - 1.0) * 100.0 - PAPER_GAIN_PCT).abs(),
        "pp",
    );
    out.push(
        "mpki_error_pct",
        mpki_errors.iter().sum::<f64>() / mpki_errors.len().max(1) as f64,
        "%",
    );
    out.push(
        "agg_ipc",
        gmean(prefetching().map(|(_, r)| r.aggregate_ipc())),
        "instr/cycle",
    );
    out.push(
        "min_max_ipc_ratio",
        gmean(prefetching().map(|(_, r)| r.min_max_ipc_ratio())),
        "ratio",
    );
}

fn trace_of(run: &CellRun) -> &CellTrace {
    run.trace
        .as_ref()
        .expect("a traced pass records every cell")
}

/// Sums of the LLC counters the prefetch-quality ratios need.
#[derive(Default)]
struct Quality {
    useful: u64,
    late: u64,
    useless: u64,
    misses: u64,
}

impl Quality {
    fn add(&mut self, llc: &CacheStats) {
        self.useful += llc.pf_useful;
        self.late += llc.pf_late;
        self.useless += llc.pf_useless;
        self.misses += llc.demand_misses;
    }
}

/// Per-layer metrics of a traced pass. `plain` is the untraced pass of
/// the same cells, which supplies the harness and replay-speed figures;
/// `write_mb_per_s` is the median capture speed of the set-ups.
pub fn layers(
    suite: &Suite,
    traced: &Pass,
    plain: &Pass,
    jobs: usize,
    write_mb_per_s: f64,
    out: &mut Metrics,
) {
    let cells = &suite.cells;
    let done: Vec<(&Cell, &SimResult, &CellRun)> = cells
        .iter()
        .zip(&traced.runs)
        .filter_map(|(c, run)| run.result.as_ref().ok().map(|r| (c, r, run)))
        .collect();
    let kinstr = |c: &Cell, r: &SimResult| c.instructions(r) as f64 / 1000.0;
    let is_replay = |c: &Cell| matches!(c.streams, Streams::Replay(_));

    let run_ns: f64 = done.iter().map(|(_, _, run)| run.run_s * 1e9).sum();
    let all_kinstr: f64 = done.iter().map(|(c, r, _)| kinstr(c, r)).sum();
    let mut source_ns = [0.0f64; 2];
    let mut source_calls = [0u64; 2];
    let mut source_kinstr = [0.0f64; 2];
    let mut pf_ns = 0.0;
    for (c, r, run) in &done {
        let side = usize::from(is_replay(c));
        source_ns[side] += trace_of(run).source.estimated_ns();
        source_calls[side] += trace_of(run).source.calls;
        source_kinstr[side] += kinstr(c, r);
        pf_ns += trace_of(run)
            .prefetchers
            .iter()
            .map(|p| p.clock.estimated_ns())
            .sum::<f64>();
    }
    let share = |ns: f64| ratio(ns, run_ns) * 100.0;

    out.push(
        "workloads.ns_per_kinstr",
        ratio(source_ns[0], source_kinstr[0]),
        "ns/kinstr",
    );
    out.push(
        "workloads.calls_per_kinstr",
        ratio(source_calls[0] as f64, source_kinstr[0]),
        "calls/kinstr",
    );
    out.push("workloads.share_pct", share(source_ns[0]), "%");

    let quarantined: u64 = done
        .iter()
        .filter_map(|(_, r, _)| r.ingest.map(|i| i.quarantined_records))
        .sum();
    let capture = suite.capture.unwrap_or_default();
    let bytes_per_record = ratio(capture.bytes as f64, capture.records as f64);
    let replayed_bytes: f64 = plain
        .runs
        .iter()
        .filter_map(|run| run.result.as_ref().ok()?.ingest)
        .map(|i| i.delivered_records as f64 * bytes_per_record)
        .sum();
    out.push(
        "trace.read_ns_per_kinstr",
        ratio(source_ns[1], source_kinstr[1]),
        "ns/kinstr",
    );
    out.push("trace.read_share_pct", share(source_ns[1]), "%");
    out.push(
        "trace.replay_mb_per_s",
        ratio(replayed_bytes / 1e6, plain.sim_seconds(jobs)),
        "MB/s",
    );
    out.push("trace.write_mb_per_s", write_mb_per_s, "MB/s");
    out.push("trace.bytes_per_record", bytes_per_record, "B/record");
    out.push("trace.quarantined_records", quarantined as f64, "count");

    for (slug, kind) in KINDS {
        let mut ns = 0.0;
        let mut accesses = 0u64;
        let mut core_kinstr = 0.0;
        let mut quality = Quality::default();
        for (c, r, run) in &done {
            for (core, k) in c.kinds.iter().enumerate() {
                if *k == kind {
                    let p = &trace_of(run).prefetchers[core];
                    ns += p.clock.estimated_ns();
                    accesses += p.accesses;
                    core_kinstr += (r.cores[core].instructions + c.warmup) as f64 / 1000.0;
                }
            }
            if c.kinds.iter().all(|k| *k == kind) {
                quality.add(&r.llc);
            }
        }
        let used = (quality.useful + quality.late) as f64;
        let name = |m: &str| format!("prefetcher.{slug}.{m}");
        out.push(
            name("ns_per_access"),
            ratio(ns, accesses as f64),
            "ns/access",
        );
        out.push(
            name("accesses_per_kinstr"),
            ratio(accesses as f64, core_kinstr),
            "acc/kinstr",
        );
        out.push(
            name("accuracy"),
            ratio(used, used + quality.useless as f64),
            "ratio",
        );
        out.push(
            name("coverage"),
            ratio(used, used + quality.misses as f64),
            "ratio",
        );
        out.push(
            name("late_ratio"),
            ratio(quality.late as f64, used),
            "ratio",
        );
    }
    let mut bingo: BTreeMap<&str, f64> = BTreeMap::new();
    for (c, r, _) in &done {
        for (core, k) in c.kinds.iter().enumerate() {
            if *k == PrefetcherKind::Bingo {
                for (name, value) in &r.prefetcher_metrics[core] {
                    *bingo.entry(name).or_default() += value;
                }
            }
        }
    }
    let lookups = bingo.get("lookups").copied().unwrap_or(0.0);
    for (metric, counter) in [
        ("long_hit_ratio", "long_hits"),
        ("short_hit_ratio", "short_hits"),
        ("empty_vote_ratio", "empty_votes"),
    ] {
        let count = bingo.get(counter).copied().unwrap_or(0.0);
        out.push(
            format!("prefetcher.bingo.{metric}"),
            ratio(count, lookups),
            "ratio",
        );
    }
    out.push("prefetcher.share_pct", share(pf_ns), "%");

    let rest_ns = run_ns - source_ns[0] - source_ns[1] - pf_ns;
    out.push(
        "sim.rest_ns_per_kinstr",
        ratio(rest_ns, all_kinstr),
        "ns/kinstr",
    );
    out.push("sim.rest_share_pct", share(rest_ns), "%");
    let measured_kinstr: f64 = done
        .iter()
        .map(|(_, r, _)| r.instructions() as f64 / 1000.0)
        .sum();
    let per_kinstr = |f: &dyn Fn(&SimResult) -> u64| {
        ratio(
            done.iter().map(|(_, r, _)| f(r) as f64).sum(),
            measured_kinstr,
        )
    };
    out.push(
        "sim.llc.mpki",
        per_kinstr(&|r| r.llc.demand_misses),
        "misses/kinstr",
    );
    out.push(
        "sim.l1d.mpki",
        per_kinstr(&|r| r.l1d.demand_misses),
        "misses/kinstr",
    );
    out.push(
        "sim.llc.mshr_stalls_per_kinstr",
        per_kinstr(&|r| r.llc.demand_mshr_stalls),
        "stalls/kinstr",
    );
    let core_sum = |f: &dyn Fn(&bingo_sim::CoreStats) -> u64| -> f64 {
        done.iter()
            .flat_map(|(_, r, _)| r.cores.iter())
            .map(|s| f(s) as f64)
            .sum()
    };
    let cycles = core_sum(&|s| s.cycles);
    out.push(
        "sim.core.dispatch_stall_frac",
        ratio(core_sum(&|s| s.dispatch_stall_cycles), cycles),
        "frac",
    );
    // The dependency counter sums each dependent load's wait, and the
    // waits of loads in flight together overlap, so it is reported per
    // retired instruction rather than as a share of cycles.
    out.push(
        "sim.core.dependency_wait_per_instr",
        ratio(
            core_sum(&|s| s.dependency_stall_cycles),
            core_sum(&|s| s.instructions),
        ),
        "cycles/instr",
    );
    out.push(
        "sim.dram.transfers_per_kinstr",
        per_kinstr(&|r| r.dram_transfers),
        "xfers/kinstr",
    );
    let stream: Vec<u64> = done
        .iter()
        .flat_map(|(_, _, run)| trace_of(run).llc_stream.iter().copied())
        .collect();
    let (lookup_ns, read_ns) = crate::traced::price_cache_and_dram(&stream);
    out.push("sim.cache.llc_ns_per_lookup", lookup_ns, "ns/lookup");
    out.push("sim.dram.ns_per_read", read_ns, "ns/read");

    let qos = || done.iter().filter_map(|(_, r, _)| r.qos.as_ref());
    let per_core = |f: &dyn Fn(&bingo_sim::CoreQos) -> u64| -> f64 {
        qos()
            .flat_map(|q| q.cores.iter())
            .map(|c| f(c) as f64)
            .sum()
    };
    out.push("throttle.degrades", per_core(&|c| c.degrades), "count");
    out.push("throttle.upgrades", per_core(&|c| c.upgrades), "count");
    out.push(
        "throttle.watchdog_clamps",
        qos().map(|q| q.watchdog_clamps as f64).sum(),
        "count",
    );
    out.push(
        "throttle.watchdog_starved_epochs",
        qos().map(|q| q.watchdog_starved_epochs as f64).sum(),
        "count",
    );

    let mut ledger = bingo_sim::TelemetryReport::default();
    for t in done.iter().filter_map(|(_, r, _)| r.telemetry.as_ref()) {
        ledger.issued += t.issued;
        ledger.dropped_duplicate += t.dropped_duplicate;
        ledger.dropped_mshr += t.dropped_mshr;
        ledger.dropped_queue += t.dropped_queue;
        ledger.timely += t.timely;
        ledger.late += t.late;
        ledger.unused += t.unused;
    }
    let settled = (ledger.timely + ledger.late + ledger.unused) as f64;
    let candidates =
        (ledger.issued + ledger.dropped_duplicate + ledger.dropped_mshr + ledger.dropped_queue)
            as f64;
    out.push(
        "telemetry.timely_ratio",
        ratio(ledger.timely as f64, settled),
        "ratio",
    );
    out.push(
        "telemetry.late_ratio",
        ratio(ledger.late as f64, settled),
        "ratio",
    );
    out.push(
        "telemetry.dropped_queue_ratio",
        ratio(ledger.dropped_queue as f64, candidates),
        "ratio",
    );

    out.push("harness.worker_util", plain.worker_util(jobs), "ratio");
    out.push("harness.straggler_s", plain.straggler_s(), "s");
    out.push(
        "tracing.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        "%",
    );
}
