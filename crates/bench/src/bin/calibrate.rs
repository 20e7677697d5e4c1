//! Calibration diagnostic: baseline MPKI vs Table II, plus quick
//! coverage/speedup sanity for a few prefetchers. Not one of the paper's
//! figures — a development tool for tuning the workload generators.

use bingo_bench::{pct, ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_workloads::Workload;

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let mut harness = ParallelHarness::new(&config);
    let kinds = [
        PrefetcherKind::Bingo,
        PrefetcherKind::Sms,
        PrefetcherKind::Bop,
    ];
    let evals = harness.evaluate_all(&Workload::ALL, &kinds);
    let mut table = Table::new(vec![
        "Workload",
        "MPKI",
        "Paper",
        "IPC",
        "Bingo cov",
        "Bingo ov",
        "Bingo spd",
        "SMS cov",
        "SMS spd",
        "BOP cov",
        "BOP spd",
    ]);
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let row = &evals[wi * kinds.len()..(wi + 1) * kinds.len()];
        let (bingo, sms, bop) = (&row[0], &row[1], &row[2]);
        let base = &bingo.baseline;
        table.row(vec![
            w.name().to_string(),
            format!("{:.1}", base.llc_mpki()),
            format!("{:.1}", w.paper_mpki()),
            format!("{:.2}", base.aggregate_ipc()),
            pct(bingo.coverage.coverage),
            pct(bingo.coverage.overprediction),
            pct(bingo.improvement()),
            pct(sms.coverage.coverage),
            pct(sms.improvement()),
            pct(bop.coverage.coverage),
            pct(bop.improvement()),
        ]);
    }
    println!("{table}");
}
