//! Compares a candidate bench-record file against the committed snapshot
//! and fails (exit 1) on regressions beyond a noise threshold.
//!
//! ```text
//! bench_compare --snapshot BENCH_simulator.json --candidate /tmp/candidate.json
//! ```
//!
//! The regression direction comes from each record's unit: `…/s` units
//! (throughputs) regress downward, cost units (`ms/run`, `ns/op`) regress
//! upward. Two layers make the absolute-time gate noise-tolerant:
//!
//! * **Host-speed normalization.** When both files carry the
//!   `calibration/spin` record (a fixed CPU-bound loop, see
//!   `perf_record`), the ratio of its times estimates how much
//!   slower/faster the candidate host is than the snapshot host, and
//!   every candidate value is scaled by that factor first. A different
//!   runner class — or the same shared box under different co-tenant
//!   load — shifts all cases by a common factor; the calibration divides
//!   it out so the threshold only sees per-case changes.
//! * **Best-pass condition.** A case fails only when *both* the
//!   candidate's median and its best observed sample are beyond the
//!   threshold: a real slowdown degrades every pass, while scheduler
//!   jitter usually spares at least one.
//!
//! `BINGO_BENCH_THRESHOLD` overrides the default threshold of 0.15. A
//! snapshot key missing from the candidate is a failure (silent coverage
//! loss must not pass the gate); candidate-only keys are listed as new and
//! do not fail.

use std::path::PathBuf;
use std::process::ExitCode;

use bingo_bench::{load_records, BenchRecord, ConfigError, RunConfig, CALIBRATION_KEY};

struct Args {
    snapshot: PathBuf,
    candidate: PathBuf,
    threshold: f64,
}

fn parse_args() -> Args {
    let (config, (snapshot, candidate)) = RunConfig::from_process(|args| {
        match (args.value("--snapshot")?, args.value("--candidate")?) {
            (Some(snapshot), Some(candidate)) => Ok((snapshot, candidate)),
            _ => Err(ConfigError::new(
                "usage: bench_compare --snapshot <file> --candidate <file>",
            )),
        }
    });
    Args {
        snapshot: PathBuf::from(snapshot),
        candidate: PathBuf::from(candidate),
        threshold: config.bench_threshold,
    }
}

/// Relative change of a candidate value vs the snapshot median, oriented
/// so that positive is always a regression.
fn regression(base: &BenchRecord, value: f64) -> f64 {
    if base.median == 0.0 {
        return 0.0;
    }
    let delta = (value - base.median) / base.median;
    if base.higher_is_better() {
        -delta
    } else {
        delta
    }
}

/// The candidate's best observed sample in the regression direction:
/// the fastest pass for costs, the highest throughput for rates.
fn best_sample(cand: &BenchRecord) -> f64 {
    if cand.higher_is_better() {
        cand.hi
    } else {
        cand.lo
    }
}

/// How much slower the candidate host is than the snapshot host (> 1 =
/// slower), from the calibration records; 1.0 when either file lacks one.
///
/// Uses each spin's *fastest* pass: co-tenant load only ever adds time,
/// so the minimum tracks intrinsic host speed while the median of a
/// contended window does not.
fn host_factor(snapshot: &[BenchRecord], candidate: &[BenchRecord]) -> f64 {
    let cal = |records: &[BenchRecord]| {
        records
            .iter()
            .find(|r| r.key == CALIBRATION_KEY)
            .map(|r| r.lo)
    };
    match (cal(snapshot), cal(candidate)) {
        (Some(base), Some(cand)) if base > 0.0 => cand / base,
        _ => {
            println!("no calibration record in both files; comparing raw times");
            1.0
        }
    }
}

/// Rescales a candidate value to the snapshot host's speed.
fn normalize(cand: &BenchRecord, value: f64, factor: f64) -> f64 {
    if cand.higher_is_better() {
        value * factor
    } else {
        value / factor
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let load = |what: &str, path: &PathBuf| {
        load_records(path).unwrap_or_else(|e| panic!("cannot load {what} {path:?}: {e}"))
    };
    let snapshot = load("snapshot", &args.snapshot);
    let candidate = load("candidate", &args.candidate);

    let factor = host_factor(&snapshot, &candidate);
    if factor != 1.0 {
        println!(
            "calibration: candidate host is {factor:.2}x the snapshot host's spin time; \
             normalizing all cases"
        );
    }

    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut improved = 0usize;
    for base in &snapshot {
        if base.key == CALIBRATION_KEY {
            continue; // the normalizer itself is not a gated case
        }
        let Some(cand) = candidate.iter().find(|c| c.key == base.key) else {
            missing.push(base.key.clone());
            continue;
        };
        if cand.unit != base.unit {
            regressions.push(format!(
                "{}: unit changed {} -> {} (re-baseline the snapshot)",
                base.key, base.unit, cand.unit
            ));
            continue;
        }
        let reg = regression(base, normalize(cand, cand.median, factor));
        let reg_best = regression(base, normalize(cand, best_sample(cand), factor));
        let arrow = if base.higher_is_better() { "-" } else { "+" };
        let line = format!(
            "{}: {:.3} -> {:.3} {} (normalized {arrow}{:.1}% worse, best pass {arrow}{:.1}%, \
             threshold {:.1}%)",
            base.key,
            base.median,
            cand.median,
            base.unit,
            reg.abs() * 100.0,
            reg_best.abs() * 100.0,
            args.threshold * 100.0
        );
        if reg > args.threshold && reg_best > args.threshold {
            regressions.push(line);
        } else {
            if reg < 0.0 {
                improved += 1;
            }
            println!(
                "ok   {}: {:.3} -> {:.3} {} (normalized {:+.1}% worse)",
                base.key,
                base.median,
                cand.median,
                base.unit,
                reg * 100.0
            );
        }
    }
    let new: Vec<&BenchRecord> = candidate
        .iter()
        .filter(|c| c.key != CALIBRATION_KEY && snapshot.iter().all(|b| b.key != c.key))
        .collect();
    for n in &new {
        println!("new  {n}");
    }

    let gated = snapshot.iter().filter(|r| r.key != CALIBRATION_KEY).count();
    println!(
        "\ncompared {gated} cases: {} within threshold ({improved} improved), {} new, {} missing, {} regressed",
        gated - regressions.len() - missing.len(),
        new.len(),
        missing.len(),
        regressions.len()
    );
    let mut failed = false;
    for m in &missing {
        eprintln!("MISSING {m}: present in snapshot, absent from candidate");
        failed = true;
    }
    for r in &regressions {
        eprintln!("REGRESSION {r}");
        failed = true;
    }
    if failed {
        eprintln!(
            "\nbench gate failed (threshold {:.0}%). If the change is intentional, \
             regenerate the snapshot from the workspace root: \
             BINGO_BENCH_JSON=$PWD/BENCH_simulator.json cargo bench -p bingo-bench",
            args.threshold * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench gate passed (threshold {:.0}%)",
            args.threshold * 100.0
        );
        ExitCode::SUCCESS
    }
}
