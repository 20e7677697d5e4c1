//! Corpus-driven replay figure: every headline prefetcher replayed on
//! *recorded* instruction streams instead of the live generators.
//!
//! ```text
//! fig_traces [--traces DIR] [--workload NAME]... [--quick]
//! ```
//!
//! Missing captures are recorded on the fly into `DIR` (default
//! `target/traces/`, the `trace_capture` tool's default) at the current
//! [`bingo_bench::RunScale`], then the (trace × prefetcher) grid runs
//! through [`ParallelHarness::evaluate_trace_grid`] with per-trace
//! no-prefetcher baselines. Because capture and replay are bit-for-bit (see the
//! `trace_capture --verify` round trip), the numbers here match the
//! generator-driven Fig. 7/8 sweeps at the same scale — what the figure
//! *adds* is the ingestion evidence: every row reports how many records
//! the loader delivered and how many it quarantined, which must be zero
//! for a pristine corpus.

use bingo_bench::{geometric_mean, pct, ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_sim::SystemConfig;
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

/// Fetch-ahead slack appended to each capture (see `trace_capture`).
const CAPTURE_SLACK: u64 = 256;

fn main() {
    let (config, (workloads, root)) = RunConfig::from_process(|args| {
        Ok((
            args.workloads(&Workload::ALL)?,
            args.path("--traces", "target/traces")?,
        ))
    });
    let scale = config.scale;
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;
    let chunk = config.trace_chunk;

    let traces: Vec<TraceWorkload> = workloads
        .iter()
        .map(|&w| {
            let dir = root.join(w.slug());
            if TraceWorkload::open(&dir).is_err() {
                eprintln!("[capture] recording {} -> {}", w.name(), dir.display());
                capture_workload(w, cores, scale.seed, records, chunk, &dir).unwrap_or_else(|e| {
                    panic!("capture of {} into {} failed: {e}", w.name(), dir.display())
                });
            }
            TraceWorkload::open(&dir)
                .unwrap_or_else(|e| panic!("opening capture {}: {e}", dir.display()))
        })
        .collect();

    let mut harness = ParallelHarness::new(&config);
    let evals = harness.evaluate_trace_grid(&traces, &PrefetcherKind::HEADLINE);

    let mut t = Table::new(vec![
        "Trace",
        "Prefetcher",
        "Coverage",
        "Overpred",
        "Speedup",
        "Delivered",
        "Quarantined",
    ]);
    let mut speedups_by_kind: Vec<(String, Vec<f64>)> = PrefetcherKind::HEADLINE
        .iter()
        .map(|k| (k.name(), Vec::new()))
        .collect();
    let mut quarantined_total = 0u64;
    for (idx, e) in evals.iter().enumerate() {
        let ingest = e
            .result
            .ingest
            .as_ref()
            .expect("trace replays attach an ingest report");
        quarantined_total += ingest.quarantined_records;
        t.row(vec![
            e.workload.clone(),
            e.kind.name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            format!("{:.3}x", e.speedup),
            ingest.delivered_records.to_string(),
            ingest.quarantined_records.to_string(),
        ]);
        speedups_by_kind[idx % PrefetcherKind::HEADLINE.len()]
            .1
            .push(e.speedup);
    }
    for (name, vals) in &speedups_by_kind {
        t.row(vec![
            "Geomean".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            format!("{:.3}x", geometric_mean(vals)),
            String::new(),
            String::new(),
        ]);
    }

    t.write_csv(config.csv.as_deref(), "fig_traces");
    println!(
        "Recorded-trace replay: headline prefetchers on the captured\n\
         corpus under {} (streamed chunk-at-a-time; quarantined must be 0\n\
         for a pristine corpus).\n\n{t}",
        root.display()
    );
    assert_eq!(
        quarantined_total, 0,
        "pristine corpus reported quarantined records — the capture or the loader is corrupt"
    );
}
