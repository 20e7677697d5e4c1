//! Checkpoint compatibility of the per-core throttle mode: `percore`
//! sweeps resume bit-for-bit from their own `/throttle=percore`-suffixed
//! namespace, and that namespace is disjoint from both the unthrottled
//! and the chip-wide-feedback generations sharing the same file — a
//! mixed-generation checkpoint serves all three without cross-talk.

use std::path::{Path, PathBuf};

use bingo_bench::{
    Checkpoint, MixCell, MixConfig, MixEvaluation, ParallelHarness, Pressure, RunConfig, RunScale,
};
use bingo_sim::ThrottleMode;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-percore-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn mix() -> MixConfig {
    MixConfig::parse_str(
        "mix pair\n\
         core 0 workload=streaming prefetcher=bingo\n\
         core 1 workload=stress-storm prefetcher=bingo\n\
         end\n",
    )
    .expect("valid mix")
    .remove(0)
}

fn cells() -> Vec<MixCell> {
    vec![
        MixCell {
            mix: mix(),
            cores: 2,
            pressure: Pressure::NONE,
        },
        MixCell {
            mix: mix(),
            cores: 2,
            pressure: Pressure::CONSTRAINED,
        },
    ]
}

fn harness(throttle: ThrottleMode, cp: Option<&Path>) -> ParallelHarness {
    ParallelHarness::new(&RunConfig {
        throttle,
        checkpoint: cp.map(Path::to_path_buf),
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale())
    })
}

/// NaN-proof bitwise comparison of two mix evaluations.
fn assert_bit_identical(fresh: &MixEvaluation, resumed: &MixEvaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fresh.fairness.core_ipcs),
        bits(&resumed.fairness.core_ipcs),
        "{what}: core IPCs differ"
    );
}

#[test]
fn percore_mix_keys_resume_bit_for_bit() {
    let path = tmp_path("percore-resume");

    // The reference: an uncheckpointed percore sweep. Its results carry
    // QoS reports, so this also pins that the optional `qos` field
    // round-trips through the checkpoint in a real sweep (not just the
    // serializer unit tests).
    let fresh = harness(ThrottleMode::Percore, None)
        .try_evaluate_mix_grid(&cells())
        .into_complete();

    {
        let mut h = harness(ThrottleMode::Percore, Some(&path));
        let report = h.try_evaluate_mix_grid(&cells());
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "first run simulates everything");
    }

    let cp = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(cp.len(), 6, "2 mix cells + 4 solo runs are durable");
    let mut h = harness(ThrottleMode::Percore, Some(&path));
    let report = h.try_evaluate_mix_grid(&cells());
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
        let qos = r
            .result
            .qos
            .as_ref()
            .unwrap_or_else(|| panic!("{what}: replayed percore run lost its QoS report"));
        assert_eq!(qos.cores.len(), 2, "{what}: one QoS row per core");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn percore_entries_share_a_file_with_older_throttle_generations() {
    // One checkpoint file, three generations: an unthrottled sweep (the
    // pre-throttle key format), a chip-wide feedback sweep (PR 8's
    // suffix), then a percore sweep. Each must populate its own
    // namespace — zero hits on first contact — and replay fully from it
    // afterwards, leaving the others untouched.
    let path = tmp_path("mixed-throttle-generations");
    let generations = [
        ThrottleMode::Off,
        ThrottleMode::Feedback,
        ThrottleMode::Percore,
    ];

    let mut expected_len = 0;
    for &mode in &generations {
        let mut h = harness(mode, Some(&path));
        let report = h.try_evaluate_mix_grid(&cells());
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(
            report.checkpoint_hits, 0,
            "{mode} sweep must not replay another generation's entries"
        );
        expected_len += 6;
        let durable = Checkpoint::open(&path).expect("reopen").len();
        assert_eq!(
            durable, expected_len,
            "{mode} sweep appended its own 6 entries without clobbering"
        );
    }

    // The grown file now serves every generation entirely from replay.
    for &mode in &generations {
        let mut h = harness(mode, Some(&path));
        let report = h.try_evaluate_mix_grid(&cells());
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 6, "{mode} cells replay");
    }
    let _ = std::fs::remove_file(&path);
}
