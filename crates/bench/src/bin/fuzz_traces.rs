//! Adversarial trace-decoder fuzzer: seeded corruption against the
//! hardened loader.
//!
//! ```text
//! fuzz_traces [--seeds N] [--out DIR]    default 500 seeds, artifacts to
//!                                        target/traces-fuzz/
//! ```
//!
//! For every seed, a pristine capture image is corrupted by a deterministic
//! plan ([`bingo_trace::plan_for_seed`]: truncation, bit flips, chunk
//! reordering, garbage headers, mid-record EOF) and pushed through both
//! ingestion policies. The loader's contract, checked per seed:
//!
//! * **no panics** — either policy, any input;
//! * **strict** either decodes everything or returns a typed
//!   [`bingo_trace::ReadError`] whose message carries the byte offset;
//! * **strict-clean implies lenient-clean** — when strict accepts the
//!   bytes, lenient must deliver the identical record stream with nothing
//!   quarantined;
//! * **lenient always terminates** with an ingest report, never an error
//!   (I/O aside), no matter how mangled the bytes are;
//! * **batched drain ≡ element-wise drain** — under each policy, a second
//!   drain through a seeded interleaving of the reader's op-run fast path
//!   (`leading_ops`/`take_ops`/`next_instr`, seeded by the image's CRC)
//!   must deliver the same records and ingest report and end on the same
//!   error variant at the same byte offset.
//!
//! A subsample of corrupted images additionally runs a tiny lenient
//! simulation end to end, asserting the sweep completes (or fails as a
//! contained cell) and that the quarantine tally survives into the
//! JSONL stats export.
//!
//! On any violation the corruption plan is shrunk with
//! [`bingo_oracle::shrink_items`] to a minimal reproducing op list, the
//! corrupted image and plan are written to `--out`, and the process exits
//! nonzero — CI uploads the directory as an artifact.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bingo_bench::{CellOutcome, CellSpec, Cores, PrefetcherKind, RunConfig, RunScale, StatsExport};
use bingo_oracle::shrink_items;
use bingo_trace::corrupt::drain;
use bingo_trace::crc32::crc32;
use bingo_trace::{apply, capture_source, plan_for_seed, CorruptionOp, Policy};
use bingo_workloads::{TraceWorkload, Workload};

struct Args {
    seeds: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let (_, args) = RunConfig::from_process(|args| {
        let seeds = args.parsed("--seeds", "a number", |v| v.parse().ok())?;
        Ok(Args {
            seeds: seeds.unwrap_or(500),
            out: args.path("--out", "target/traces-fuzz")?,
        })
    });
    args
}

/// Base images the corruptions are applied to: single-core captures of
/// three workloads with deliberately different access mixes, small chunks
/// so most seeds hit several chunk boundaries.
fn base_images() -> Vec<(Workload, Vec<u8>)> {
    let picks = [Workload::Streaming, Workload::Em3d, Workload::STRESS[0]];
    picks
        .iter()
        .map(|&w| {
            let mut sources = w.sources(1, 0xF0_5EED);
            let mut sink = Cursor::new(Vec::new());
            capture_source(sources[0].as_mut(), 3_000, 128, &mut sink)
                .expect("in-memory capture cannot fail on I/O");
            (w, sink.into_inner())
        })
        .collect()
}

/// How one corrupted image fared against the loader contract. `None`
/// means every clause held.
fn violation(image: &[u8], ops: &[CorruptionOp]) -> Option<String> {
    let corrupted = apply(image, ops);
    let interleave = u64::from(crc32(&corrupted));
    let mut drained = Vec::new();
    for (policy, name) in [(Policy::Strict, "strict"), (Policy::Lenient, "lenient")] {
        let Ok(reference) = catch_unwind(AssertUnwindSafe(|| drain(&corrupted, policy, None)))
        else {
            return Some(format!("{name} decoder PANICKED"));
        };
        let Ok(batched) = catch_unwind(AssertUnwindSafe(|| {
            drain(&corrupted, policy, Some(interleave))
        })) else {
            return Some(format!("{name} batched decoder PANICKED"));
        };
        if let Some(diff) = reference.divergence(&batched) {
            return Some(format!(
                "{name} batched drain diverged from element-wise: {diff}"
            ));
        }
        drained.push(reference);
    }
    let (strict, lenient) = (&drained[0], &drained[1]);
    match (&strict.error, &lenient.error) {
        (None, None) => {
            if strict.records != lenient.records {
                return Some(format!(
                    "strict accepted {} records but lenient delivered {}",
                    strict.records.len(),
                    lenient.records.len()
                ));
            }
        }
        (Some(e), _) => {
            if !e.to_string().contains("byte") {
                return Some(format!("strict error lost its byte offset: {e}"));
            }
        }
        (_, Some(e)) => {
            return Some(format!(
                "lenient policy must never error on corruption: {e}"
            ));
        }
    }
    None
}

/// Writes a file, failing loudly with the path and the cause — a fuzz
/// artifact that silently fails to land would hide the repro.
fn write_artifact(path: &Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("creating artifact dir {}: {e}", parent.display()));
    }
    std::fs::write(path, bytes)
        .unwrap_or_else(|e| panic!("writing artifact {}: {e}", path.display()));
}

fn report_violation(
    out: &Path,
    seed: u64,
    workload: Workload,
    image: &[u8],
    ops: &[CorruptionOp],
    why: &str,
) -> ExitCode {
    // Shrink the op list to a minimal plan that still violates the
    // contract (the predicate re-applies the surviving subset to the
    // pristine image each probe). Sim-level failures are not reproducible
    // by the pure decode predicate, so those plans ship unshrunk.
    let (shrunk, final_why) = if violation(image, ops).is_some() {
        let shrunk = shrink_items(ops, &mut |subset| violation(image, subset).is_some());
        let final_why = violation(image, &shrunk).expect("shrunk plan still violates");
        (shrunk, final_why)
    } else {
        (ops.to_vec(), why.to_string())
    };
    let corrupted = apply(image, &shrunk);
    let trace_path = out.join(format!("violation_seed{seed}.btrc"));
    write_artifact(&trace_path, &corrupted);
    let plan = format!(
        "trace-decoder contract violation\nseed {seed}\nbase image: {} ({} bytes)\n\
         violation: {final_why}\nshrunk plan ({} of {} ops):\n{}",
        workload.name(),
        image.len(),
        shrunk.len(),
        ops.len(),
        shrunk
            .iter()
            .map(|op| format!("  {op:?}\n"))
            .collect::<String>()
    );
    write_artifact(
        &out.join(format!("violation_seed{seed}.txt")),
        plan.as_bytes(),
    );
    eprintln!(
        "FAIL seed {seed} ({}): {final_why}\nshrunk {} -> {} ops; artifact: {}",
        workload.name(),
        ops.len(),
        shrunk.len(),
        trace_path.display()
    );
    ExitCode::FAILURE
}

/// End-to-end lenient replay of a corrupted image through the cell
/// harness: must either complete with an ingest report (quarantine
/// visible in the JSONL stats export) or fail as a contained cell with a
/// loud message — never hang, never take down the process.
fn check_lenient_sim(out: &Path, seed: u64, corrupted: &[u8]) -> Result<(), String> {
    let dir = out.join("sim-scratch").join(format!("seed{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("core0.btrc");
    std::fs::write(&path, corrupted).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let trace = TraceWorkload::with_policy(&dir, Policy::Lenient)
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let scale = RunScale {
        instructions_per_core: 1_500,
        warmup_per_core: 500,
        seed,
    };
    let spec = CellSpec::new(Cores::Trace(trace, PrefetcherKind::NextLine(1)), scale);
    let outcome = spec.run_isolated(false);
    let result = match outcome {
        CellOutcome::Ok(result) => result,
        // A capture with zero decodable records has nothing to replay;
        // the designed failure is a loud, contained cell panic.
        CellOutcome::Panicked { message } if message.contains("no decodable records") => {
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        CellOutcome::Panicked { message } => {
            return Err(format!("lenient sim cell panicked: {message}"));
        }
        CellOutcome::TimedOut { limit } => {
            return Err(format!("lenient sim timed out after {limit:?}"));
        }
    };
    let ingest = result
        .ingest
        .as_ref()
        .ok_or("lenient sim completed without an ingest report")?;
    // The quarantine tally must survive into the machine-readable export.
    let stats_path = dir.join("stats.jsonl");
    let stats = StatsExport::create(&stats_path)
        .map_err(|e| format!("creating {}: {e}", stats_path.display()))?;
    let key = spec.key().expect("trace cells have a key");
    stats
        .record(&key, &result)
        .map_err(|e| format!("writing {}: {e}", stats_path.display()))?;
    let line = std::fs::read_to_string(&stats_path)
        .map_err(|e| format!("reading back {}: {e}", stats_path.display()))?;
    if !line.contains("\"ingest\"") {
        return Err(format!(
            "stats export dropped the ingest report (quarantined {} records): {line}",
            ingest.quarantined_records
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let images = base_images();
    let mut strict_clean = 0u64;
    let mut strict_rejected = 0u64;
    let mut sims = 0u64;

    for seed in 0..args.seeds {
        let (workload, image) = &images[(seed % images.len() as u64) as usize];
        let ops = plan_for_seed(seed, image.len() as u64);
        if let Some(why) = violation(image, &ops) {
            return report_violation(&args.out, seed, *workload, image, &ops, &why);
        }
        let corrupted = apply(image, &ops);
        match drain(&corrupted, Policy::Strict, None).error {
            None => strict_clean += 1,
            Some(_) => strict_rejected += 1,
        }
        // Every 25th seed: full lenient simulation over the mangled bytes.
        if seed % 25 == 0 {
            sims += 1;
            if let Err(why) = check_lenient_sim(&args.out, seed, &corrupted) {
                return report_violation(&args.out, seed, *workload, image, &ops, &why);
            }
        }
    }

    println!(
        "trace-decoder fuzz clean: {} corrupted images ({} strict-accepted, {} typed \
         rejections), {} end-to-end lenient sims, zero panics",
        args.seeds, strict_clean, strict_rejected, sims
    );
    ExitCode::SUCCESS
}
