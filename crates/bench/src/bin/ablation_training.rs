//! Ablation — Bingo's end-of-residency training signal.
//!
//! The paper (following SMS) ends a region's residency — and trains the
//! history table — "whenever a block from the page is invalidated or
//! evicted from the cache". The alternative is to train only when the
//! accumulation table overflows (no cache feedback at all). This ablation
//! quantifies how much the eviction signal matters.
//!
//! The non-paper variant is not expressible as a [`bingo_bench::PrefetcherKind`], so
//! the study fans its cells out with [`parallel_map`] directly.

use bingo::{Bingo, BingoConfig};
use bingo_bench::{geometric_mean, mean, parallel_map, pct, RunConfig, RunScale, Table};
use bingo_sim::{CoverageReport, NoPrefetcher, Prefetcher, System, SystemConfig};
use bingo_workloads::Workload;

fn run(w: Workload, pf: Option<BingoConfig>, scale: RunScale) -> bingo_sim::SimResult {
    let cfg = SystemConfig::paper();
    System::with_prefetchers(
        cfg,
        w.sources(cfg.cores, scale.seed),
        |_| match pf {
            Some(c) => Box::new(Bingo::new(c)) as Box<dyn Prefetcher>,
            None => Box::new(NoPrefetcher),
        },
        scale.instructions_per_core,
    )
    .with_warmup(scale.warmup_per_core)
    .run()
}

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let scale = config.scale;
    let variants = [
        ("eviction + overflow (paper)", BingoConfig::paper()),
        (
            "overflow only",
            BingoConfig {
                train_on_eviction: false,
                ..BingoConfig::paper()
            },
        ),
    ];
    // Cell list: first the per-workload baselines, then (variant, workload)
    // in variant-major order.
    let mut cells: Vec<(Option<BingoConfig>, Workload)> =
        Workload::ALL.iter().map(|&w| (None, w)).collect();
    for (_, cfg) in variants {
        cells.extend(Workload::ALL.iter().map(|&w| (Some(cfg), w)));
    }
    let results = parallel_map(config.jobs, cells.len(), |i| {
        let (cfg, w) = cells[i];
        let r = run(w, cfg, scale);
        eprintln!(
            "done {w} ({})",
            if cfg.is_some() { "bingo" } else { "baseline" }
        );
        r
    });
    let n_workloads = Workload::ALL.len();
    let baselines = &results[..n_workloads];
    let mut t = Table::new(vec![
        "Training signal",
        "Perf gmean",
        "Coverage",
        "Overprediction",
    ]);
    for (vi, (name, _)) in variants.into_iter().enumerate() {
        let chunk = &results[(vi + 1) * n_workloads..(vi + 2) * n_workloads];
        let mut speedups = Vec::new();
        let mut covs = Vec::new();
        let mut ovs = Vec::new();
        for (r, base) in chunk.iter().zip(baselines) {
            let c = CoverageReport::from_runs(r, base);
            speedups.push(r.speedup_over(base));
            covs.push(c.coverage);
            ovs.push(c.overprediction);
        }
        t.row(vec![
            name.to_string(),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    println!("Ablation: Bingo end-of-residency training signal.\n\n{t}");
}
