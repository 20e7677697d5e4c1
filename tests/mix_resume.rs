//! Checkpoint compatibility of the mix grid: old single-core checkpoint
//! files keep working, `mix:`/`mix-solo:`-namespaced entries resume
//! bit-for-bit, and a checkpoint holding a mixture of old-style and
//! mix-style entries (with failures among them) retries only what is
//! actually missing.

use std::path::PathBuf;

use bingo_bench::{
    Checkpoint, MixAssignment, MixCell, MixConfig, MixEvaluation, ParallelHarness, PrefetcherKind,
    Pressure, RunConfig, RunScale,
};
use bingo_workloads::Workload;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-mix-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn mix() -> MixConfig {
    MixConfig::parse_str(
        "mix pair\n\
         core 0 workload=streaming prefetcher=stride\n\
         core 1 workload=em3d prefetcher=none\n\
         end\n",
    )
    .expect("valid mix")
    .remove(0)
}

fn mix_cells() -> Vec<MixCell> {
    vec![
        MixCell {
            mix: mix(),
            cores: 2,
            pressure: Pressure::NONE,
        },
        MixCell {
            mix: mix(),
            cores: 2,
            pressure: Pressure::SCARCE,
        },
    ]
}

fn classic_cells() -> Vec<(Workload, PrefetcherKind)> {
    vec![
        (Workload::Em3d, PrefetcherKind::Stride),
        (Workload::Streaming, PrefetcherKind::NextLine(1)),
    ]
}

/// NaN-proof bitwise comparison of two mix evaluations.
fn assert_bit_identical(fresh: &MixEvaluation, resumed: &MixEvaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    assert_eq!(
        fresh.fairness.aggregate_ipc.to_bits(),
        resumed.fairness.aggregate_ipc.to_bits(),
        "{what}: aggregate IPC differs"
    );
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fresh.fairness.core_ipcs),
        bits(&resumed.fairness.core_ipcs),
        "{what}: core IPCs differ"
    );
    assert_eq!(
        bits(&fresh.fairness.slowdowns),
        bits(&resumed.fairness.slowdowns),
        "{what}: slowdowns differ"
    );
}

#[test]
fn mix_keys_resume_bit_for_bit() {
    let cells = mix_cells();
    let path = tmp_path("mix-resume");

    // The reference: an uncheckpointed sweep.
    let fresh = ParallelHarness::new(&RunConfig {
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    })
    .try_evaluate_mix_grid(&cells)
    .into_complete();

    // A checkpointed sweep populates the file...
    {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "first run simulates everything");
    }

    // ...and a brand-new harness replays every cell and every solo from
    // it: 2 mix cells + 2 slots × 2 pressure levels = 6 entries.
    let cp = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(cp.len(), 6, "2 mix cells + 4 solo runs are durable");
    let mut h = ParallelHarness::new(&RunConfig {
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    });
    let report = h.try_evaluate_mix_grid(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 6,
        "everything replays, nothing re-simulates"
    );
    let resumed = report.into_complete();
    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        let what = format!("{}@{} / {}", f.mix_name, f.cores, f.pressure.name);
        assert_bit_identical(f, r, &what);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn old_single_core_checkpoints_still_parse_and_share_the_file() {
    // A checkpoint written by the classic (pre-mix) grid is still valid:
    // its entries replay for classic cells, and mix entries append to the
    // same file without disturbing them.
    let path = tmp_path("mixed-generations");
    let classic = classic_cells();
    {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        h.evaluate_grid(&classic);
    }
    let classic_entries = Checkpoint::open(&path).expect("reopen").len();
    assert_eq!(
        classic_entries, 4,
        "2 classic cells + 2 baselines are durable"
    );

    // Run the mix grid against the same file: classic entries are not
    // consulted (disjoint key namespaces), mix entries append.
    {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        let report = h.try_evaluate_mix_grid(&mix_cells());
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "no mix entry predates this run");
    }

    // The grown file now serves both generations entirely from replay.
    let cp = Checkpoint::open(&path).expect("reopen grown file");
    assert_eq!(
        cp.len(),
        classic_entries + 6,
        "old entries survived the append"
    );
    let mut h = ParallelHarness::new(&RunConfig {
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    });
    let classic_report = h.try_evaluate_grid(&classic);
    assert!(classic_report.is_clean());
    assert_eq!(classic_report.checkpoint_hits, 4, "classic cells replay");
    let mix_report = h.try_evaluate_mix_grid(&mix_cells());
    assert!(mix_report.is_clean());
    assert_eq!(mix_report.checkpoint_hits, 6, "mix cells replay");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_old_new_checkpoint_retries_only_failed_cells() {
    // A grid containing a cell that panics: the healthy cells and solos
    // are made durable; the resume replays them and re-attempts only the
    // broken cell.
    let path = tmp_path("retry-failed");
    let broken = MixConfig {
        name: "broken".to_string(),
        cores: vec![MixAssignment {
            workload: Workload::Em3d,
            prefetcher: PrefetcherKind::Faulty { panic_after: 100 },
            scale_percent: 100,
        }],
        ramp: None,
    };
    let mut cells = mix_cells();
    cells.push(MixCell {
        mix: broken,
        cores: 1,
        pressure: Pressure::NONE,
    });

    let durable = {
        let mut h = ParallelHarness::new(&RunConfig {
            checkpoint: Some(path.clone()),
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale())
        });
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(!report.is_clean(), "the faulty cell must fail");
        assert!(report.evaluations[0].is_some() && report.evaluations[1].is_some());
        assert!(report.evaluations[2].is_none());
        Checkpoint::open(&path).expect("reopen").len()
    };
    assert_eq!(
        durable, 6,
        "every healthy mix cell and solo is durable; the failed cell is not"
    );

    // Resume over the same grid: the 6 healthy entries replay; only the
    // broken cell's solo re-simulates (and fails again, listed as data).
    let mut h = ParallelHarness::new(&RunConfig {
        checkpoint: Some(path.clone()),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    });
    let report = h.try_evaluate_mix_grid(&cells);
    assert_eq!(
        report.checkpoint_hits, 6,
        "healthy cells replay, not re-run"
    );
    assert!(!report.is_clean(), "the retried cell still fails");
    assert!(report.evaluations[0].is_some() && report.evaluations[1].is_some());
    assert!(report.evaluations[2].is_none());
    assert!(
        report.failures.iter().any(|f| f.label.starts_with("solo ")),
        "the re-attempted failure is the broken solo"
    );
    let _ = std::fs::remove_file(&path);
}
