//! Cross-version resume lock: the checkpoint file of a fixed sweep must
//! keep resuming under the current runner, and the file of an older,
//! positional encoding must be rejected by name, never misread.
//!
//! `tests/corpus/checkpoints/runner_v19.jsonl` is the field-named
//! checkpoint of the tiny-scale sweep below. It covers every key form a
//! checkpointed sweep writes: classic cells, a `telemetry=counts` cell, a
//! `throttle=percore` cell, and a 2-core mix under scarce pressure with
//! its per-slot solo runs. Two checks hold the runner to it:
//!
//! 1. resuming from a copy of the file simulates nothing — every cell
//!    and every reference run is a checkpoint hit (a zero per-cell
//!    deadline would fail any simulation), and the file gains no line;
//! 2. re-simulating the sweep without the file writes a checkpoint
//!    holding exactly the fixture's lines — same keys, same results,
//!    bit for bit.
//!
//! `tests/corpus/checkpoints/runner_v13.jsonl` is the same sweep in the
//! positional encoding, committed once and never regenerated. Its keys
//! are the field-named fixture's keys; every line of it is rejected as
//! positional, so a sweep against it re-simulates every run.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bingo_bench::{
    Checkpoint, MixCell, MixConfig, ParallelHarness, PrefetcherKind, Pressure, RunConfig, RunScale,
};
use bingo_sim::{TelemetryLevel, ThrottleMode};
use bingo_workloads::Workload;

const FIXTURE: &str = "tests/corpus/checkpoints/runner_v19.jsonl";
const POSITIONAL_FIXTURE: &str = "tests/corpus/checkpoints/runner_v13.jsonl";

const SCALE: RunScale = RunScale {
    instructions_per_core: 15_000,
    warmup_per_core: 5_000,
    seed: 21,
};

/// The classic grid: None, Stride and Bingo on em3d and streaming.
fn classic_cells() -> Vec<(Workload, PrefetcherKind)> {
    [Workload::Em3d, Workload::Streaming]
        .into_iter()
        .flat_map(|w| {
            [
                PrefetcherKind::None,
                PrefetcherKind::Stride,
                PrefetcherKind::Bingo,
            ]
            .map(|k| (w, k))
        })
        .collect()
}

fn mix_cells() -> Vec<MixCell> {
    let mix = MixConfig::parse_str(
        "mix pair\n\
         core 0 workload=em3d prefetcher=bingo\n\
         core 1 workload=streaming prefetcher=stride scale=50%\n\
         end\n",
    )
    .expect("valid mix")
    .remove(0);
    vec![MixCell {
        mix,
        cores: 2,
        pressure: Pressure::SCARCE,
    }]
}

/// Runs the whole fixture sweep against `checkpoint` and returns its
/// checkpoint hits. With `deadline` set, every simulation must finish
/// within it.
fn sweep(checkpoint: &Path, deadline: Option<Duration>) -> usize {
    let config = RunConfig {
        checkpoint: Some(checkpoint.to_path_buf()),
        cell_timeout: deadline,
        jobs: 2,
        progress: false,
        ..RunConfig::new(SCALE)
    };
    let harness = |config: RunConfig| ParallelHarness::new(&config);
    let classic = harness(config.clone()).try_evaluate_grid(&classic_cells());
    assert!(classic.is_clean(), "{}", classic.failure_report());
    let counts = harness(RunConfig {
        telemetry: TelemetryLevel::Counts,
        ..config.clone()
    })
    .try_evaluate_grid(&[(Workload::Streaming, PrefetcherKind::Stride)]);
    assert!(counts.is_clean(), "{}", counts.failure_report());
    let percore = harness(RunConfig {
        throttle: ThrottleMode::Percore,
        ..config.clone()
    })
    .try_evaluate_grid(&[(Workload::Em3d, PrefetcherKind::Bingo)]);
    assert!(percore.is_clean(), "{}", percore.failure_report());
    let mix = harness(config).try_evaluate_mix_grid(&mix_cells());
    assert!(mix.is_clean(), "{}", mix.failure_report());
    classic.checkpoint_hits + counts.checkpoint_hits + percore.checkpoint_hits + mix.checkpoint_hits
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-runner-resume");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    lines.sort_unstable();
    lines
}

/// The key of every line: both encodings open with `{"key":"<key>",`.
fn sorted_keys(text: &str) -> Vec<&str> {
    let mut keys: Vec<&str> = sorted_lines(text)
        .into_iter()
        .map(|line| {
            let rest = line
                .strip_prefix("{\"key\":\"")
                .expect("a line opens with its key");
            &rest[..rest.find('"').expect("a quoted key")]
        })
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn committed_checkpoint_resumes_and_matches_a_fresh_sweep() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("read the committed fixture");
    let fixture_lines = sorted_lines(&fixture);
    // 6 classic cells (their None cells double as the baselines), the
    // telemetry cell + its baseline, the percore cell + its baseline,
    // and the mix cell + its 2 solos.
    assert_eq!(fixture_lines.len(), 13, "fixture holds one line per run");

    // 1. Resume: every cell and reference is a hit, nothing is appended.
    // A zero deadline proves it: any run that simulated would time out
    // and fail its grid.
    let resumed = scratch("resumed");
    std::fs::write(&resumed, &fixture).expect("copy the fixture");
    assert_eq!(sweep(&resumed, Some(Duration::ZERO)), 13);
    let after = std::fs::read_to_string(&resumed).expect("reread");
    assert_eq!(after, fixture, "a full resume appends nothing");

    // 2. Fresh: the same sweep without the fixture writes the same lines.
    let fresh = scratch("fresh");
    assert_eq!(sweep(&fresh, None), 0);
    let written = std::fs::read_to_string(&fresh).expect("read the fresh checkpoint");
    assert_eq!(
        sorted_lines(&written),
        fixture_lines,
        "re-simulated keys or results drifted from the committed fixture"
    );
    let _ = std::fs::remove_file(&resumed);
    let _ = std::fs::remove_file(&fresh);
}

#[test]
fn positional_checkpoint_is_rejected_and_fully_re_simulated() {
    let positional = std::fs::read_to_string(POSITIONAL_FIXTURE).expect("read the v13 fixture");
    let fixture = std::fs::read_to_string(FIXTURE).expect("read the v19 fixture");
    assert_eq!(
        sorted_keys(&positional),
        sorted_keys(&fixture),
        "the keys are unchanged"
    );

    let copy = scratch("positional");
    std::fs::write(&copy, &positional).expect("copy the v13 fixture");
    let cp = Checkpoint::open(&copy).expect("open the v13 copy");
    assert_eq!(
        (cp.len(), cp.positional_lines(), cp.skipped_lines()),
        (0, 13, 0)
    );
    drop(cp);

    // Every run re-simulates, and appends exactly the field-named lines.
    assert_eq!(sweep(&copy, None), 0, "no positional line is replayed");
    let after = std::fs::read_to_string(&copy).expect("reread");
    let appended = after
        .strip_prefix(positional.as_str())
        .expect("the old lines stay");
    assert_eq!(sorted_lines(appended), sorted_lines(&fixture));
    let _ = std::fs::remove_file(&copy);
}
