//! Figure 4 — redundancy in the metadata of a naive two-table TAGE-like
//! spatial prefetcher: the fraction of lookups for which the long
//! (`PC+Address`) and short (`PC+Offset`) tables offer an *identical*
//! prediction. High redundancy is what justifies Bingo's unified table.
//!
//! The paper reports redundancy from 26% (SAT Solver) to 93% (Mix 2).

use bingo_bench::{mean, pct, ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_workloads::Workload;

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let mut harness = ParallelHarness::new(&config);
    let cells: Vec<(Workload, PrefetcherKind)> = Workload::ALL
        .iter()
        .map(|&w| (w, PrefetcherKind::MultiEvent(2)))
        .collect();
    let mut report = harness.try_evaluate_grid(&cells);
    // A renamed counter must fail the figure by name, not plot as zero.
    report.require_metrics(&["lookups", "dual_identical", "dual_both_matched"]);
    let evals = report.into_complete();
    let mut t = Table::new(vec!["Workload", "Redundancy", "Both-matched"]);
    let mut all = Vec::new();
    for e in &evals {
        let lookups = e.result.metric_sum("lookups").expect("required above");
        let identical = e
            .result
            .metric_sum("dual_identical")
            .expect("required above");
        let both = e
            .result
            .metric_sum("dual_both_matched")
            .expect("required above");
        let redundancy = if lookups > 0.0 {
            identical / lookups
        } else {
            0.0
        };
        let both_frac = if lookups > 0.0 { both / lookups } else { 0.0 };
        all.push(redundancy);
        t.row(vec![e.workload.clone(), pct(redundancy), pct(both_frac)]);
    }
    t.row(vec!["Average".to_string(), pct(mean(&all)), String::new()]);
    t.write_csv(config.csv.as_deref(), "fig4_redundancy");
    println!(
        "Figure 4. Redundancy of naive two-table TAGE metadata: fraction of\n\
         lookups where long and short events predict identically\n\
         (paper: 26%–93%).\n\n{t}"
    );
}
