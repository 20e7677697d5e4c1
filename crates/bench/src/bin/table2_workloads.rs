//! Table II — application parameters: baseline LLC MPKI of every workload
//! (no prefetcher), compared against the paper's reported values.

use bingo_bench::{ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_workloads::Workload;

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let mut harness = ParallelHarness::new(&config);
    let baselines = harness.evaluate_all(&Workload::ALL, &[PrefetcherKind::None]);
    let mut t = Table::new(vec!["Application", "Description", "MPKI", "Paper MPKI"]);
    for (w, e) in Workload::ALL.into_iter().zip(&baselines) {
        let base = &e.baseline;
        t.row(vec![
            w.name().to_string(),
            w.description().to_string(),
            format!("{:.1}", base.llc_mpki()),
            format!("{:.1}", w.paper_mpki()),
        ]);
    }
    t.write_csv(config.csv.as_deref(), "table2_workloads");
    println!("Table II. Application parameters (baseline LLC MPKI).\n\n{t}");
}
