//! Ablation — Bingo's multi-match footprint-voting threshold.
//!
//! Section IV: when only the short event matches, possibly in several ways,
//! Bingo prefetches blocks present in ≥20% of the matching footprints. This
//! ablation sweeps the threshold from aggressive-union (5%) to strict
//! intersection (100%), confirming the paper's choice of 20%.

use bingo_bench::{geometric_mean, mean, pct, ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_workloads::Workload;

const THRESHOLDS: [f64; 6] = [0.05, 0.2, 0.35, 0.5, 0.75, 1.0];

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let mut harness = ParallelHarness::new(&config);
    // Threshold-major grid: all workloads of one threshold are contiguous.
    let cells: Vec<_> = THRESHOLDS
        .iter()
        .flat_map(|&th| {
            Workload::ALL
                .into_iter()
                .map(move |w| (w, PrefetcherKind::BingoVote(th)))
        })
        .collect();
    let evals = harness.evaluate_grid(&cells);
    let mut t = Table::new(vec![
        "Vote threshold",
        "Perf gmean",
        "Coverage",
        "Overprediction",
    ]);
    let n_workloads = Workload::ALL.len();
    for (i, &th) in THRESHOLDS.iter().enumerate() {
        let chunk = &evals[i * n_workloads..(i + 1) * n_workloads];
        let speedups: Vec<f64> = chunk.iter().map(|e| e.speedup).collect();
        let covs: Vec<f64> = chunk.iter().map(|e| e.coverage.coverage).collect();
        let ovs: Vec<f64> = chunk.iter().map(|e| e.coverage.overprediction).collect();
        t.row(vec![
            pct(th),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    println!("Ablation: Bingo footprint-voting threshold (paper picks 20%).\n\n{t}");
}
