//! Prefetcher shootout: all six prefetchers of the paper's comparison on a
//! server workload (Data Serving), printing coverage, overprediction,
//! accuracy, and speedup — a miniature of Figs. 7 and 8.
//!
//! ```sh
//! cargo run --release --example shootout -- [--workload NAME]
//! ```
//!
//! `NAME` is one of: data-serving, sat-solver, streaming, zeus, em3d,
//! mix-1..mix-5 (default: data-serving). The six cells run in parallel;
//! set `BINGO_JOBS` to bound the worker count.

use bingo_repro::bench::{ParallelHarness, PrefetcherKind, RunConfig, RunScale};
use bingo_repro::workloads::Workload;

fn main() {
    // With no `--workload`, every workload is picked: the first is Data
    // Serving.
    let (config, picked) = RunConfig::from_process(|args| args.workloads(&Workload::ALL));
    let workload = picked[0];
    println!("workload: {workload} — {}\n", workload.description());

    let scale = RunScale {
        instructions_per_core: 400_000,
        warmup_per_core: 600_000,
        seed: 42,
    };
    let mut harness = ParallelHarness::new(&RunConfig {
        scale,
        progress: false,
        ..config
    });
    let evals = harness.evaluate_all(&[workload], &PrefetcherKind::HEADLINE);

    let baseline = &evals[0].baseline;
    println!(
        "baseline: IPC {:.3}, {} LLC misses (MPKI {:.1})\n",
        baseline.aggregate_ipc(),
        baseline.llc.demand_misses,
        baseline.llc_mpki()
    );
    println!(
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>8}",
        "", "coverage", "overpred", "accuracy", "speedup"
    );
    for e in &evals {
        println!(
            "{:>6}  {:>8.1}%  {:>8.1}%  {:>8.1}%  {:>7.1}%",
            e.kind.name(),
            e.coverage.coverage * 100.0,
            e.coverage.overprediction * 100.0,
            e.coverage.accuracy * 100.0,
            (e.speedup - 1.0) * 100.0
        );
    }
}
