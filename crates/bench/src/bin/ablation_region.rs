//! Ablation — spatial region size (1 KB / 2 KB / 4 KB).
//!
//! The region is the unit over which footprints are recorded and
//! prefetched; 2 KB is the reference ChampSim Bingo choice. Larger regions
//! amortize more blocks per trigger but dilute pattern stability.
//!
//! Because the region size changes the *system* configuration (not just
//! the prefetcher), this study runs outside the harness, fanning its cells
//! out with [`parallel_map`] directly.

use bingo::{Bingo, BingoConfig};
use bingo_bench::{geometric_mean, mean, parallel_map, pct, RunConfig, RunScale, Table};
use bingo_sim::{CoverageReport, NoPrefetcher, RegionGeometry, System, SystemConfig};
use bingo_workloads::Workload;

const REGION_BYTES: [u64; 3] = [1024, 2048, 4096];

fn run(w: Workload, region_bytes: Option<u64>, scale: RunScale) -> bingo_sim::SimResult {
    let mut cfg = SystemConfig::paper();
    if let Some(bytes) = region_bytes {
        cfg.region = RegionGeometry::new(bytes);
    }
    let sources = w.sources(cfg.cores, scale.seed);
    let system = System::with_prefetchers(
        cfg,
        sources,
        |_| match region_bytes {
            Some(bytes) => Box::new(Bingo::new(BingoConfig {
                region: RegionGeometry::new(bytes),
                ..BingoConfig::paper()
            })),
            None => Box::new(NoPrefetcher),
        },
        scale.instructions_per_core,
    )
    .with_warmup(scale.warmup_per_core);
    system.run()
}

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let scale = config.scale;
    // Cell list: first the per-workload baselines, then (region, workload)
    // in region-major order.
    let mut cells: Vec<(Option<u64>, Workload)> =
        Workload::ALL.iter().map(|&w| (None, w)).collect();
    for &bytes in &REGION_BYTES {
        cells.extend(Workload::ALL.iter().map(|&w| (Some(bytes), w)));
    }
    let results = parallel_map(config.jobs, cells.len(), |i| {
        let (region, w) = cells[i];
        let r = run(w, region, scale);
        match region {
            Some(bytes) => eprintln!("done {w} / {bytes} B"),
            None => eprintln!("baseline {w}"),
        }
        r
    });
    let n_workloads = Workload::ALL.len();
    let baselines = &results[..n_workloads];
    let mut t = Table::new(vec!["Region", "Perf gmean", "Coverage", "Overprediction"]);
    for (ri, &bytes) in REGION_BYTES.iter().enumerate() {
        let chunk = &results[(ri + 1) * n_workloads..(ri + 2) * n_workloads];
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
            format!("{} KB", bytes / 1024),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    println!("Ablation: spatial region size for Bingo.\n\n{t}");
}
