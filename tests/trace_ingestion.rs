//! Committed-corpus ingestion tests: every capture under
//! `tests/corpus/traces/` is re-decoded on plain `cargo test`, so a format
//! or loader regression that breaks previously-written traces (or stops
//! rejecting previously-rejected corruption) fails CI without needing the
//! fuzz driver.
//!
//! The corpus holds three pristine single-core captures (2 256 records
//! each, 256-record chunks) plus `corrupt-bitflip.btrc` — the minimal
//! corruption, a single flipped payload bit, which must trip the chunk
//! CRC: a typed error under the strict policy, a quarantined chunk under
//! the lenient one.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use bingo_repro::bench::{
    CellOutcome, CellSpec, Cores, ParallelHarness, PrefetcherKind, RunConfig, RunScale,
};
use bingo_repro::sim::Instr;
use bingo_repro::trace::{Policy, TraceReader};
use bingo_repro::workloads::TraceWorkload;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/traces")
}

const PRISTINE: [&str; 3] = ["streaming.btrc", "em3d.btrc", "stress-chase.btrc"];
const CORRUPT: &str = "corrupt-bitflip.btrc";

fn decode(bytes: &[u8], policy: Policy) -> Result<Vec<Instr>, bingo_repro::trace::ReadError> {
    let mut reader = TraceReader::new(Cursor::new(bytes), policy)?;
    let mut out = Vec::new();
    while let Some(instr) = reader.next_instr()? {
        out.push(instr);
    }
    Ok(out)
}

/// Copies a corpus file into a scratch capture directory (as `core0.btrc`)
/// so it can be opened as a [`TraceWorkload`].
fn as_capture_dir(file: &str, scratch_name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bingo-corpus-tests")
        .join(format!("{scratch_name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::copy(corpus_dir().join(file), dir.join("core0.btrc")).expect("copy corpus file");
    dir
}

#[test]
fn corpus_is_present_and_complete() {
    for name in PRISTINE.iter().chain([CORRUPT].iter()) {
        let path = corpus_dir().join(name);
        assert!(path.is_file(), "missing corpus file {}", path.display());
    }
}

#[test]
fn pristine_corpus_decodes_identically_under_both_policies() {
    for name in PRISTINE {
        let bytes = std::fs::read(corpus_dir().join(name)).expect("read corpus file");
        let strict = decode(&bytes, Policy::Strict)
            .unwrap_or_else(|e| panic!("{name}: strict decode failed: {e}"));
        assert!(!strict.is_empty(), "{name}: no records decoded");

        let mut reader = TraceReader::new(Cursor::new(&bytes[..]), Policy::Strict).unwrap();
        let total = reader.header().expect("framed header").total_records;
        while reader.next_instr().unwrap().is_some() {}
        assert_eq!(strict.len() as u64, total, "{name}: header total disagrees");
        assert!(reader.report().is_clean(), "{name}: {}", reader.report());

        let lenient = decode(&bytes, Policy::Lenient)
            .unwrap_or_else(|e| panic!("{name}: lenient decode failed: {e}"));
        assert_eq!(strict, lenient, "{name}: policies disagree on clean bytes");
    }
}

#[test]
fn corrupt_corpus_trace_yields_typed_strict_error_with_offset() {
    let bytes = std::fs::read(corpus_dir().join(CORRUPT)).expect("read corpus file");
    let err = decode(&bytes, Policy::Strict).expect_err("a flipped bit must not decode cleanly");
    assert!(err.offset() > 0, "error should locate the damage: {err}");
    assert!(
        err.to_string().contains("byte"),
        "typed errors carry their byte offset: {err}"
    );
}

#[test]
fn corrupt_corpus_trace_is_quarantined_under_lenient_policy() {
    let bytes = std::fs::read(corpus_dir().join(CORRUPT)).expect("read corpus file");
    let mut reader = TraceReader::new(Cursor::new(&bytes[..]), Policy::Lenient).unwrap();
    let mut delivered = 0u64;
    while reader
        .next_instr()
        .expect("lenient never errors on bit flips")
        .is_some()
    {
        delivered += 1;
    }
    let report = reader.report();
    assert!(delivered > 0, "the undamaged chunks must still replay");
    assert!(
        report.quarantined_records > 0,
        "the damaged chunk must be quarantined: {report}"
    );
    // The flipped bit damages exactly one 256-record chunk.
    assert_eq!(report.quarantined_records, 256, "{report}");
    assert_eq!(report.skipped_chunks, 1, "{report}");
}

#[test]
fn corpus_trace_drives_a_simulation_end_to_end() {
    let dir = as_capture_dir(PRISTINE[0], "sim");
    let trace = TraceWorkload::open(&dir).expect("open corpus capture");
    let scale = RunScale {
        instructions_per_core: 1_500,
        warmup_per_core: 500,
        seed: 0,
    };
    let mut result = CellSpec::new(Cores::Trace(trace, PrefetcherKind::NextLine(1)), scale)
        .run()
        .expect("corpus replay completes");
    let ingest = result.ingest.take().expect("replay attaches a report");
    assert!(ingest.is_clean(), "pristine corpus quarantined: {ingest}");
    assert!(
        result.llc.demand_misses > 0,
        "the replay must exercise the LLC"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_corpus_trace_fails_strict_cell_but_completes_lenient_sim() {
    let dir = as_capture_dir(CORRUPT, "corrupt-sim");
    let scale = RunScale {
        instructions_per_core: 1_000,
        warmup_per_core: 300,
        seed: 0,
    };

    let strict = TraceWorkload::open(&dir).expect("open corpus capture");
    match CellSpec::new(Cores::Trace(strict, PrefetcherKind::None), scale).run_isolated(false) {
        CellOutcome::Panicked { message } => {
            assert!(
                message.contains("byte"),
                "strict cell failure should carry the typed offset: {message}"
            );
        }
        other => panic!("strict replay of corrupt bytes must fail its cell, got {other:?}"),
    }

    let lenient =
        TraceWorkload::with_policy(&dir, Policy::Lenient).expect("open corpus capture leniently");
    match CellSpec::new(Cores::Trace(lenient, PrefetcherKind::None), scale).run_isolated(false) {
        CellOutcome::Ok(result) => {
            let ingest = result.ingest.as_ref().expect("replay attaches a report");
            assert!(
                ingest.quarantined_records > 0,
                "the damage must be visible in the result: {ingest}"
            );
        }
        other => panic!("lenient replay must complete, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replacing a capture in place must not let a resumed sweep replay the
/// old capture's checkpointed result: the trace's checkpoint key covers
/// the bytes of its core files, not only their path.
#[test]
fn replaced_capture_is_re_simulated_not_replayed_from_the_checkpoint() {
    let dir = as_capture_dir(PRISTINE[0], "replaced");
    let checkpoint = dir.join("sweep.jsonl");
    let scale = RunScale {
        instructions_per_core: 1_000,
        warmup_per_core: 300,
        seed: 0,
    };
    let quarantined = || {
        let trace = TraceWorkload::with_policy(&dir, Policy::Lenient).expect("open capture");
        let mut harness = ParallelHarness::new(&RunConfig {
            checkpoint: Some(checkpoint.clone()),
            jobs: 1,
            progress: false,
            ..RunConfig::new(scale)
        });
        let evals = harness.evaluate_trace_grid(&[trace], &[PrefetcherKind::NextLine(1)]);
        evals[0]
            .result
            .ingest
            .as_ref()
            .expect("replay attaches a report")
            .quarantined_records
    };
    assert_eq!(quarantined(), 0, "the pristine capture is clean");
    std::fs::copy(corpus_dir().join(CORRUPT), dir.join("core0.btrc")).expect("replace capture");
    assert!(
        quarantined() > 0,
        "the replaced capture must be re-simulated, not replayed from the old result"
    );
    std::fs::remove_dir_all(&dir).ok();
}
