//! Capture → replay round-trip determinism: for every synthetic workload
//! (the Table II suite *and* the adversarial stress workloads), recording
//! the generator streams to framed `.btrc` files and replaying them
//! through the simulator produces a [`SimResult`] bit-for-bit equal to
//! running the live generators — the property that makes captures
//! trustworthy substitutes for the generators in every figure.

use std::path::PathBuf;

use bingo_repro::bench::{run_one, run_trace_one_configured, PrefetcherKind, RunScale};
use bingo_repro::sim::{SimResult, SystemConfig, TelemetryLevel, ThrottleMode};
use bingo_repro::workloads::{capture_workload, TraceWorkload, Workload};

const SCALE: RunScale = RunScale {
    instructions_per_core: 12_000,
    warmup_per_core: 8_000,
    seed: 42,
};

/// Fetch-ahead slack past the retirement budget (see `trace_capture`).
const SLACK: u64 = 256;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bingo-roundtrip-tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Records per chunk of the captures, unless a test needs tiny chunks.
const CHUNK: u32 = 1 << 12;

/// Captures `workload` in `chunk_records`-record chunks, replays it with
/// `kind`, and returns (live result, replayed result) with the replay's
/// ingest report detached after asserting it is clean — the only field a
/// live run does not carry.
fn round_trip(
    workload: Workload,
    kind: PrefetcherKind,
    chunk_records: u32,
) -> (SimResult, SimResult) {
    let cores = SystemConfig::paper().cores;
    let records = SCALE.warmup_per_core + SCALE.instructions_per_core + SLACK;
    // Tests run on parallel threads of one process: each capture needs
    // its own directory.
    let dir = scratch(&format!(
        "{}-{kind:?}-chunk{chunk_records}",
        workload.slug()
    ));
    capture_workload(workload, cores, SCALE.seed, records, chunk_records, &dir)
        .unwrap_or_else(|e| panic!("capture of {workload} failed: {e}"));
    let trace = TraceWorkload::open(&dir).expect("open capture");
    let mut replayed = run_trace_one_configured(
        &trace,
        kind,
        SCALE,
        None,
        TelemetryLevel::Off,
        ThrottleMode::Off,
    )
    .unwrap_or_else(|abort| panic!("replay of {workload} aborted: {abort}"));
    let ingest = replayed
        .ingest
        .take()
        .expect("replay attaches an ingest report");
    assert!(
        ingest.is_clean(),
        "{workload}: fresh capture quarantined: {ingest}"
    );
    assert!(
        ingest.delivered_records <= records * cores as u64,
        "{workload}: replay wrapped into a second pass"
    );
    let live = run_one(workload, kind, SCALE);
    std::fs::remove_dir_all(&dir).ok();
    (live, replayed)
}

#[test]
fn every_synthetic_workload_round_trips_bit_for_bit() {
    for w in Workload::ALL {
        let (live, replayed) = round_trip(w, PrefetcherKind::None, CHUNK);
        assert_eq!(
            live, replayed,
            "{w}: replay diverged from the live generators"
        );
    }
}

#[test]
fn every_stress_workload_round_trips_bit_for_bit() {
    for w in Workload::STRESS {
        let (live, replayed) = round_trip(w, PrefetcherKind::None, CHUNK);
        assert_eq!(
            live, replayed,
            "{w}: replay diverged from the live generators"
        );
    }
}

/// The round trip holds with a real prefetcher in the machine too: the
/// prefetcher sees the identical access stream, so coverage-relevant
/// state (cache contents, MSHR traffic, prefetch fills) matches exactly.
#[test]
fn round_trip_holds_under_bingo() {
    for w in [Workload::Streaming, Workload::Em3d] {
        let (live, replayed) = round_trip(w, PrefetcherKind::Bingo, CHUNK);
        assert_eq!(live, replayed, "{w}: Bingo replay diverged");
    }
}

/// Tiny chunks make nearly every op run straddle a chunk end, so the
/// replay's batched op dispatch and op-crank fast-forward stop at chunk
/// boundaries constantly — and the result must still be bit-for-bit the
/// live one.
#[test]
fn op_runs_straddling_chunk_ends_round_trip_bit_for_bit() {
    for w in [Workload::Em3d, Workload::Streaming] {
        for kind in [PrefetcherKind::None, PrefetcherKind::Bingo] {
            let (live, replayed) = round_trip(w, kind, 7);
            assert_eq!(
                live, replayed,
                "{w} under {kind:?}: 7-record-chunk replay diverged"
            );
        }
    }
}
