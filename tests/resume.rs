//! Acceptance test of checkpoint/resume: a sweep interrupted mid-run and
//! resumed from its `BINGO_CHECKPOINT` file produces bit-for-bit the same
//! [`bingo_bench::Evaluation`]s as an uninterrupted sweep — including
//! after the file picks up a torn final line from the simulated kill.
//!
//! The last tests lock the JSON codec itself: every optional section and
//! a NaN metric survive the checkpoint bit for bit, a misspelled field
//! rejects its line, and the committed bench snapshot re-encodes byte for
//! byte.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use bingo_bench::{
    BenchRecord, BenchWriter, CellSpec, Checkpoint, Cores, Evaluation, ParallelHarness,
    PrefetcherKind, RunConfig, RunScale,
};
use bingo_sim::{
    CacheStats, CoreQos, CoreStats, IngestReport, QosReport, SimResult, SourceCounters,
    TelemetryReport, ThrottleMode,
};
use bingo_workloads::Workload;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn grid() -> Vec<(Workload, PrefetcherKind)> {
    vec![
        (Workload::Em3d, PrefetcherKind::NextLine(1)),
        (Workload::Em3d, PrefetcherKind::Stride),
        (Workload::Streaming, PrefetcherKind::NextLine(1)),
        (Workload::Streaming, PrefetcherKind::Stride),
    ]
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// NaN-proof bitwise comparison of two evaluations.
fn assert_bit_identical(fresh: &Evaluation, resumed: &Evaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    assert_eq!(fresh.baseline, resumed.baseline, "{what}: baseline differs");
    assert_eq!(
        fresh.speedup.to_bits(),
        resumed.speedup.to_bits(),
        "{what}: speedup differs"
    );
    for (a, b, field) in [
        (
            fresh.coverage.coverage,
            resumed.coverage.coverage,
            "coverage",
        ),
        (
            fresh.coverage.overprediction,
            resumed.coverage.overprediction,
            "overprediction",
        ),
        (
            fresh.coverage.accuracy,
            resumed.coverage.accuracy,
            "accuracy",
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {field} differs");
    }
    assert_eq!(
        fresh.coverage.baseline_misses, resumed.coverage.baseline_misses,
        "{what}: baseline misses differ"
    );
    assert_eq!(
        fresh.coverage.misses_with_prefetch, resumed.coverage.misses_with_prefetch,
        "{what}: prefetch misses differ"
    );
}

#[test]
fn resume_from_checkpoint_is_bit_for_bit_identical() {
    let cells = grid();
    let path = tmp_path("resume");

    // The reference: one uninterrupted sweep, no checkpoint involved.
    let fresh = ParallelHarness::new(&RunConfig {
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    })
    .evaluate_grid(&cells);

    // The "killed" sweep: only the first half of the grid completes
    // before the process dies.
    {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        let partial = h.evaluate_grid(&cells[..2]);
        assert_eq!(partial.len(), 2);
    }

    // The kill also tears the last line mid-write.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open for tearing");
        write!(f, "{{\"key\":\"torn-mid-wri").expect("torn tail");
    }

    // Resume: the finished cells (and the Em3d baseline) replay from the
    // file; only the missing half simulates.
    let resumed_checkpoint = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(
        resumed_checkpoint.skipped_lines(),
        1,
        "exactly the torn line is skipped"
    );
    assert_eq!(
        resumed_checkpoint.len(),
        3,
        "two cells plus the Em3d baseline were durable"
    );
    let mut h = ParallelHarness::new(&RunConfig {
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    });
    let report = h.try_evaluate_grid(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 3,
        "the finished cells and baseline must replay, not re-simulate"
    );
    let resumed = report.into_complete();

    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_eq!(f.workload, r.workload);
        assert_eq!(f.kind, r.kind);
        assert_bit_identical(f, r, &format!("{} / {}", f.workload, f.kind.name()));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn completed_checkpoint_resumes_without_any_simulation() {
    let cells = grid();
    let path = tmp_path("full");
    let fresh = {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        h.evaluate_grid(&cells)
    };
    // Second harness, same file: every cell and baseline is a hit, and a
    // tight deadline proves nothing is simulated (a real simulation at
    // Duration::ZERO would time out).
    let mut h = ParallelHarness::new(&RunConfig {
        cell_timeout: Some(Duration::ZERO),
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    });
    let report = h.try_evaluate_grid(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits,
        cells.len() + 2,
        "4 cells + 2 baselines"
    );
    let resumed = report.into_complete();
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_bit_identical(f, r, &format!("{} / {}", f.workload, f.kind.name()));
    }
    let _ = std::fs::remove_file(&path);
}

/// Checkpoint/resume with the feedback throttle enabled: the controller's
/// level walk is part of the simulated machine, so a resumed throttled
/// sweep must be bit-for-bit identical to an uninterrupted one — and its
/// checkpoint keys are namespaced by mode, so an unthrottled harness can
/// never replay throttled results (or vice versa).
#[test]
fn throttled_sweep_resumes_bit_for_bit_and_keys_stay_disjoint() {
    let scale = RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 33,
    };
    let cells = vec![
        (Workload::Em3d, PrefetcherKind::Bingo),
        (Workload::Streaming, PrefetcherKind::Bingo),
    ];
    let path = tmp_path("throttle");

    // Reference: uninterrupted feedback-throttled sweep, no checkpoint.
    let fresh = ParallelHarness::new(&RunConfig {
        throttle: ThrottleMode::Feedback,
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale)
    })
    .evaluate_grid(&cells);

    // Interrupted: only the first cell (and its baseline) completes.
    {
        let mut h = ParallelHarness::new(&RunConfig {
            throttle: ThrottleMode::Feedback,
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale)
        });
        let partial = h.evaluate_grid(&cells[..1]);
        assert_eq!(partial.len(), 1);
    }

    // Resume under the same mode: the finished cell and baseline replay.
    let mut h = ParallelHarness::new(&RunConfig {
        throttle: ThrottleMode::Feedback,
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale)
    });
    let report = h.try_evaluate_grid(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 2,
        "the finished cell and the Em3d baseline must replay"
    );
    let resumed = report.into_complete();
    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_bit_identical(f, r, &format!("{} / {}", f.workload, f.kind.name()));
    }

    // Mode mismatch: an *unthrottled* harness on the same file finds no
    // usable entries — every key is namespaced by throttle mode.
    let mut h = ParallelHarness::new(&RunConfig {
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale)
    });
    let report = h.try_evaluate_grid(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 0,
        "throttled checkpoint entries must be invisible to an unthrottled sweep"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cells_are_not_checkpointed_and_retry_on_resume() {
    let path = tmp_path("failed");
    let cells = [
        (Workload::Streaming, PrefetcherKind::NextLine(1)),
        (
            Workload::Streaming,
            PrefetcherKind::Faulty { panic_after: 0 },
        ),
    ];
    {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        let report = h.try_evaluate_grid(&cells);
        assert_eq!(report.failures.len(), 1);
    }
    let cp = Checkpoint::open(&path).expect("reopen");
    assert_eq!(
        cp.len(),
        2,
        "baseline + healthy cell only; no failure entry"
    );
    assert!(
        cp.get(
            &CellSpec::new(
                Cores::Uniform(
                    Workload::Streaming,
                    PrefetcherKind::Faulty { panic_after: 0 }
                ),
                scale()
            )
            .key()
            .unwrap()
        )
        .is_none(),
        "a panicked cell must be retried on resume, not replayed"
    );
    let _ = std::fs::remove_file(&path);
}

/// A result with every optional section and a NaN metric.
fn full_result() -> SimResult {
    let counters = |n: u64| SourceCounters {
        issued: n,
        timely: n / 2,
        late: n / 4,
        unused: n / 8,
        dropped: 3,
    };
    SimResult {
        cores: vec![CoreStats {
            instructions: u64::MAX,
            cycles: 250,
            loads: 30,
            stores: 10,
            dispatch_stall_cycles: 5,
            dependency_stall_cycles: 7,
        }],
        l1d: CacheStats {
            demand_accesses: 40,
            pf_dropped_queue: 2,
            ..CacheStats::default()
        },
        llc: CacheStats {
            demand_misses: 4,
            pf_useless: 1,
            ..CacheStats::default()
        },
        dram_transfers: 9,
        total_cycles: 260,
        prefetcher_debug: vec!["quote \" backslash \\ tab \t é".to_string()],
        prefetcher_metrics: vec![vec![
            ("coverage", 0.1),
            ("nan_metric", f64::from_bits(0x7ff8_0000_dead_beef)),
            ("negative_zero", -0.0),
        ]],
        telemetry: Some(TelemetryReport {
            issued: 100,
            dropped_queue: 1,
            fill_latency_sum: 40_000,
            by_source: vec![("long".to_string(), counters(64))],
            hot_pcs: vec![(0x400, counters(48)), (u64::MAX, counters(16))],
            ..TelemetryReport::default()
        }),
        ingest: Some(IngestReport {
            delivered_records: 10_000,
            quarantined_records: 37,
            quarantined_bytes: 612,
            skipped_chunks: 3,
        }),
        qos: Some(QosReport {
            cores: vec![CoreQos {
                demand_accesses: 5_000,
                final_level: 3,
                ..CoreQos::default()
            }],
            watchdog_epochs: 6,
            watchdog_starved_epochs: 2,
            watchdog_clamps: 1,
            watchdog_exempted: 0,
        }),
    }
}

#[test]
fn checkpoint_round_trips_every_section_bit_for_bit() {
    let path = tmp_path("codec");
    let written = full_result();
    Checkpoint::open(&path)
        .expect("create")
        .record("k", &written)
        .expect("record");
    let cp = Checkpoint::open(&path).expect("reopen");
    assert_eq!((cp.len(), cp.skipped_lines()), (1, 0));
    let read = cp.get("k").expect("the entry loads");
    // `SimResult`'s PartialEq fails on NaN: compare metrics by bits, then
    // everything else with the metrics taken out.
    let bits = |r: &SimResult| -> Vec<Vec<(&str, u64)>> {
        let per_core =
            |m: &Vec<(&'static str, f64)>| m.iter().map(|&(n, v)| (n, v.to_bits())).collect();
        r.prefetcher_metrics.iter().map(per_core).collect()
    };
    assert_eq!(bits(&read), bits(&written));
    let strip = |r: &SimResult| SimResult {
        prefetcher_metrics: Vec::new(),
        ..r.clone()
    };
    assert_eq!(strip(&read), strip(&written));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn misspelled_field_rejects_its_line_and_is_counted() {
    let path = tmp_path("misspelled");
    Checkpoint::open(&path)
        .expect("create")
        .record("good", &full_result())
        .expect("record");
    let good = std::fs::read_to_string(&path).expect("read");
    // A misspelled counter, and a misspelled optional section, which
    // would otherwise read back as an absent `None`.
    let misspell = |key: &str, from: &str, to: &str| {
        let bad = good.replace("\"good\"", key).replace(from, to);
        assert_ne!(bad.replace(key, "\"good\""), good, "replacement must hit");
        bad
    };
    let counter = misspell(
        "\"counter\"",
        "\"quarantined_bytes\"",
        "\"quarantined_byte\"",
    );
    let section = misspell("\"section\"", "\"ingest\"", "\"ingset\"");
    std::fs::write(&path, good + &counter + &section).expect("append the misspelled copies");
    let cp = Checkpoint::open(&path).expect("reopen");
    assert_eq!(
        (cp.len(), cp.skipped_lines(), cp.positional_lines()),
        (1, 2, 0)
    );
    assert!(cp.get("counter").is_none() && cp.get("section").is_none());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_snapshot_re_encodes_byte_identical() {
    let snapshot = std::fs::read_to_string("BENCH_simulator.json").expect("read the snapshot");
    assert!(snapshot.lines().count() > 0);
    for line in snapshot.lines() {
        let record = BenchRecord::from_json(line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(record.to_json(), line);
    }
    // A writer's load-and-rewrite leaves the file byte-identical.
    let path = tmp_path("snapshot").with_extension("json");
    std::fs::write(&path, &snapshot).expect("copy the snapshot");
    let first = BenchRecord::from_json(snapshot.lines().next().unwrap()).unwrap();
    BenchWriter::open(&path)
        .expect("load")
        .record(first)
        .expect("rewrite");
    assert_eq!(std::fs::read_to_string(&path).expect("reread"), snapshot);
    let _ = std::fs::remove_file(&path);
}
