//! Prefetch-lifecycle timeliness breakdown (observability companion to
//! Fig. 7): for every workload × headline prefetcher, the full fate of
//! every issued prefetch — used timely, used late, evicted unused, or
//! dropped before issue — plus the average fill latency, from the
//! [`bingo_sim::TelemetryReport`] attached to each run.
//!
//! A second table attributes Bingo's prefetches to the originating event
//! kind (long `PC+Address` event vs voted short `PC+Offset` event) and
//! reports per-event-kind accuracy — the observable counterpart of the
//! paper's Fig. 2 accuracy argument.
//!
//! Telemetry defaults to `counts` here (this binary is *about* telemetry);
//! `BINGO_TELEMETRY` still overrides, e.g. `trace` for the event ring.
//! Pass `--workload <name>` (repeatable; a slug or paper name, see
//! [`Workload::from_name`]) to restrict the sweep — the CI smoke job runs a
//! single cheap workload this way.

use bingo_bench::{f2, mean, pct, ParallelHarness, PrefetcherKind, RunConfig, Table};
use bingo_sim::{SourceCounters, TelemetryLevel, TelemetryReport};
use bingo_workloads::Workload;

fn report(e: &bingo_bench::Evaluation) -> &TelemetryReport {
    e.result
        .telemetry
        .as_ref()
        .expect("harness runs with telemetry enabled")
}

fn source_timeliness(c: &SourceCounters) -> f64 {
    let used = c.timely + c.late;
    if used == 0 {
        0.0
    } else {
        c.timely as f64 / used as f64
    }
}

fn main() {
    let (mut config, workloads) = RunConfig::from_process(|args| args.workloads(&Workload::ALL));
    if !config.telemetry.enabled() {
        config.telemetry = TelemetryLevel::Counts;
    }
    let mut harness = ParallelHarness::new(&config);
    let evals = harness.evaluate_all(&workloads, &PrefetcherKind::HEADLINE);

    let mut t = Table::new(vec![
        "Workload",
        "Prefetcher",
        "Coverage",
        "Accuracy",
        "Timeliness",
        "Timely",
        "Late",
        "Unused",
        "Dropped",
        "Fill lat",
    ]);
    let mut timeliness_by_kind: Vec<(String, Vec<f64>)> = PrefetcherKind::HEADLINE
        .iter()
        .map(|k| (k.name(), Vec::new()))
        .collect();
    for (idx, e) in evals.iter().enumerate() {
        let r = report(e);
        t.row(vec![
            e.workload.clone(),
            e.kind.name(),
            pct(e.coverage.coverage),
            pct(r.accuracy()),
            pct(r.timeliness()),
            r.timely.to_string(),
            r.late.to_string(),
            r.unused.to_string(),
            (r.dropped_duplicate + r.dropped_mshr).to_string(),
            f2(r.avg_fill_latency()),
        ]);
        timeliness_by_kind[idx % PrefetcherKind::HEADLINE.len()]
            .1
            .push(r.timeliness());
    }
    for (name, vals) in &timeliness_by_kind {
        t.row(vec![
            "Average".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            pct(mean(vals)),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    let mut s = Table::new(vec![
        "Workload",
        "Event kind",
        "Issued",
        "Accuracy",
        "Timeliness",
    ]);
    for e in evals.iter().filter(|e| e.kind == PrefetcherKind::Bingo) {
        for (label, c) in &report(e).by_source {
            s.row(vec![
                e.workload.clone(),
                label.clone(),
                c.issued.to_string(),
                pct(c.accuracy()),
                pct(source_timeliness(c)),
            ]);
        }
    }

    t.write_csv(config.csv.as_deref(), "fig_timeliness");
    s.write_csv(config.csv.as_deref(), "fig_timeliness_sources");
    println!(
        "Prefetch lifecycle: timeliness and attribution of every issued\n\
         prefetch (timely + late + unused = issued minus still-in-flight).\n\n{t}"
    );
    println!(
        "Bingo prefetches by originating event kind (long = PC+Address\n\
         history replay, short = voted PC+Offset footprints).\n\n{s}"
    );
}
