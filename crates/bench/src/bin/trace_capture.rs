//! Trace capture tool: records the synthetic evaluation suite (and the
//! stress workloads) as framed `.btrc` captures for offline replay.
//!
//! ```text
//! trace_capture [--out DIR] [--workload NAME]... [--quick] [--verify]
//! ```
//!
//! Each workload lands in `DIR/<slug>/core<i>.btrc` (default
//! `target/traces/`), one stream per core of the paper's 4-core system,
//! sized to the current [`bingo_bench::RunScale`] plus fetch-ahead slack
//! so a replay at the same scale never wraps. `BINGO_TRACE_CHUNK`
//! overrides the records-per-chunk of the written files (the chunk size
//! bounds replay memory; see EXPERIMENTS.md).
//!
//! `--verify` replays every fresh capture through the no-prefetcher
//! system and asserts the [`bingo_sim::SimResult`] is bit-for-bit the
//! live generator run — the round-trip guarantee that makes captures
//! trustworthy substitutes for the generators. The process exits nonzero
//! on any divergence.

use std::process::ExitCode;

use bingo_bench::{CellSpec, Cores, PrefetcherKind, RunConfig};
use bingo_sim::SystemConfig;
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

/// Fetch-ahead slack appended to every per-core stream: cores fetch a
/// handful of instructions past their retirement budget (stalled slots),
/// so a capture sized exactly to the budget would wrap into a second
/// replay pass and diverge from the live run.
const CAPTURE_SLACK: u64 = 256;

fn suite() -> Vec<Workload> {
    Workload::ALL
        .iter()
        .chain(Workload::STRESS.iter())
        .copied()
        .collect()
}

fn main() -> ExitCode {
    let (config, (out, workloads, verify)) = RunConfig::from_process(|args| {
        Ok((
            args.path("--out", "target/traces")?,
            args.workloads(&suite())?,
            args.flag("--verify"),
        ))
    });
    let scale = config.scale;
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;
    let chunk = config.trace_chunk;
    let mut mismatches = 0usize;

    for &w in &workloads {
        let dir = out.join(w.slug());
        capture_workload(w, cores, scale.seed, records, chunk, &dir).unwrap_or_else(|e| {
            panic!("capture of {} into {} failed: {e}", w.name(), dir.display())
        });
        let bytes: u64 = (0..cores)
            .filter_map(|i| std::fs::metadata(dir.join(format!("core{i}.btrc"))).ok())
            .map(|m| m.len())
            .sum();
        println!(
            "captured {:<14} {} records/core x {cores} cores ({} bytes) -> {}",
            w.name(),
            records,
            bytes,
            dir.display()
        );
        if !verify {
            continue;
        }
        let trace = TraceWorkload::open(&dir)
            .unwrap_or_else(|e| panic!("reopening capture {}: {e}", dir.display()));
        let mut replayed = CellSpec::new(Cores::Trace(trace, PrefetcherKind::None), scale)
            .run()
            .unwrap_or_else(|abort| panic!("replay of {} aborted: {abort}", dir.display()));
        let ingest = replayed
            .ingest
            .take()
            .expect("replay attaches an ingest report");
        let live = CellSpec::new(Cores::Uniform(w, PrefetcherKind::None), scale)
            .run()
            .unwrap_or_else(|abort| panic!("live run of {} aborted: {abort}", w.name()));
        if !ingest.is_clean() {
            eprintln!(
                "VERIFY FAIL {}: fresh capture reported quarantine: {ingest}",
                w.name()
            );
            mismatches += 1;
        } else if live != replayed {
            eprintln!(
                "VERIFY FAIL {}: replayed SimResult diverges from the live generator run",
                w.name()
            );
            mismatches += 1;
        } else {
            println!("verified {:<14} replay == live (bit-for-bit)", w.name());
        }
    }

    if mismatches > 0 {
        eprintln!("{mismatches} capture(s) failed round-trip verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
