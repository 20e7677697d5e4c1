//! Runs every experiment binary in sequence, printing all tables/figures
//! and per-binary wall-clock timings. Pass `--quick` to run at CI scale.
//!
//! The binaries themselves parallelize across (workload, prefetcher)
//! cells — see `BINGO_JOBS` in EXPERIMENTS.md.

use std::process::Command;
use std::time::Instant;

const BINARIES: [&str; 17] = [
    "table1_config",
    "table2_workloads",
    "fig2_events",
    "fig3_num_events",
    "fig4_redundancy",
    "fig6_table_size",
    "fig7_coverage",
    "fig8_performance",
    "fig9_density",
    "fig10_isodegree",
    "fig_timeliness",
    "fig_traces",
    "fig_multicore",
    "ablation_voting",
    "ablation_region",
    "ablation_training",
    "workload_stats",
];

fn main() {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| panic!("cannot resolve the current executable path: {e}"));
    let dir = exe
        .parent()
        .unwrap_or_else(|| panic!("executable {} has no parent directory", exe.display()))
        .to_path_buf();
    // Parsed here so a malformed knob or flag fails once, up front; the
    // children parse the same arguments and environment again.
    let (_, args) = bingo_bench::RunConfig::from_process(|args| Ok(args.all().to_vec()));
    let total = Instant::now();
    let mut timings = Vec::new();
    let mut failures: Vec<(&str, String)> = Vec::new();
    for bin in BINARIES {
        println!("\n================ {bin} ================\n");
        let start = Instant::now();
        // One failing figure must not cost the remaining thirteen: record
        // the failure, keep sweeping, and report everything at the end.
        let outcome = match Command::new(dir.join(bin)).args(&args).status() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("exited with {status}")),
            Err(e) => Err(format!("failed to launch: {e}")),
        };
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(()) => eprintln!("[all] {bin} finished in {secs:.1}s"),
            Err(reason) => {
                eprintln!("[all] {bin} FAILED after {secs:.1}s: {reason}");
                failures.push((bin, reason));
            }
        }
        timings.push((bin, secs));
    }
    let total_secs = total.elapsed().as_secs_f64();
    println!("\n================ timing summary ================\n");
    for (bin, secs) in &timings {
        let mark = if failures.iter().any(|(f, _)| f == bin) {
            "  FAILED"
        } else {
            ""
        };
        println!("{bin:<18} {secs:>8.1}s{mark}");
    }
    println!("{:<18} {:>8.1}s", "total", total_secs);
    if !failures.is_empty() {
        eprintln!(
            "\nFAILURE REPORT: {} of {} binaries failed",
            failures.len(),
            BINARIES.len()
        );
        for (bin, reason) in &failures {
            eprintln!("  {bin}: {reason}");
        }
        std::process::exit(1);
    }
}
