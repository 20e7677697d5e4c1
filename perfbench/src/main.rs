//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <fig8-grid|contention|trace-replay> --seed <n>
//!           --seconds <s> --trace <0|1> --mix <contention.mix> --work-dir <dir>
//! ```
//!
//! It sets the workload up several times (the median is `setup_s`),
//! sweeps every cell on `available_parallelism` worker threads for about
//! `--seconds`, checks every cell's output, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of one traced sweep
//! (`--trace 1`). The last line of standard output is one JSON object.
//! `perfbench/run.py` builds this binary and supplies the last two flags.

mod cells;
mod heap;
mod metrics;
mod suite;
mod traced;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bingo_bench::parallel_map;
use bingo_sim::SimResult;

use cells::{digest, Cell, CellRun};
use metrics::{Metrics, Pass};
use suite::{Inputs, Kind, Suite};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups timed per run: enough to fill [`SETUP_TARGET_S`], within
/// these bounds. `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (5, 51);
const SETUP_TARGET_S: f64 = 1.0;

/// Sweeps of one run stay within this many seconds, whatever `--seconds`
/// asks for, so a run on a slow host still ends in time.
const MAX_MEASURE_S: f64 = 120.0;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    mix_file: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let args = Args {
        kind,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        mix_file: take("--mix")?.into(),
        work_dir: take("--work-dir")?.into(),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn sweep(cells: &[Cell], jobs: usize, traced: bool) -> Pass {
    let started = Instant::now();
    let runs = parallel_map(jobs, cells.len(), |i| cells[i].run(traced));
    Pass {
        runs,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Output checks, one tally per cell run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn record(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.messages.push(format!("{label}: {why}"));
        }
    }
}

/// Checks one cell run: it finished; its result equals `reference` (the
/// same cell's first result in this run) when given; a contention cell's
/// ledger agrees with its LLC; a replayed cell quarantined nothing and
/// equals its live twin bit for bit.
fn check_cell(
    run: &CellRun,
    reference: Option<u64>,
    twin: Option<&Result<SimResult, String>>,
    kind: Kind,
) -> Result<(), String> {
    let result = run.result.as_ref()?;
    if let Some(expected) = reference {
        if digest(result) != expected {
            return Err("result differs from the cell's first run".into());
        }
    }
    if kind == Kind::Contention {
        let issued = result.telemetry.as_ref().map(|t| t.issued);
        if issued != Some(result.llc.pf_issued) {
            return Err(format!(
                "ledger issued {issued:?} != LLC pf_issued {}",
                result.llc.pf_issued
            ));
        }
    }
    if let Some(twin) = twin {
        let ingest = result.ingest.ok_or("replay reported no ingest")?;
        if !ingest.is_clean() {
            return Err(format!("replay quarantined input: {ingest}"));
        }
        let live = twin
            .as_ref()
            .map_err(|e| format!("live twin failed: {e}"))?;
        let replayed = SimResult {
            ingest: None,
            ..result.clone()
        };
        if &replayed != live {
            return Err("replay differs from the live run".into());
        }
    }
    Ok(())
}

fn check_pass(
    suite: &Suite,
    pass: &Pass,
    reference: Option<&[Option<u64>]>,
    twins: &[Result<SimResult, String>],
    checks: &mut Checks,
) {
    for (i, (cell, run)) in suite.cells.iter().zip(&pass.runs).enumerate() {
        let expected = reference.and_then(|r| r[i]);
        let twin = twins.get(i);
        checks.record(&cell.label, check_cell(run, expected, twin, suite.kind));
    }
}

fn digests(pass: &Pass) -> Vec<Option<u64>> {
    pass.runs
        .iter()
        .map(|r| r.result.as_ref().ok().map(digest))
        .collect()
}

fn run(args: &Args) -> Result<(Metrics, Checks), String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let capture_dir = args.work_dir.join("captures");
    let inputs = Inputs {
        kind: args.kind,
        seed: args.seed,
        mix_file: &args.mix_file,
        work_dir: &capture_dir,
    };
    let mut setup_s = Vec::new();
    let mut capture_mb_s = Vec::new();
    let mut suite = None;
    let mut reps = SETUP_REPS.0;
    while setup_s.len() < reps {
        let (s, seconds) = suite::set_up(&inputs)?;
        if setup_s.is_empty() {
            let fill = (SETUP_TARGET_S / seconds).ceil() as usize;
            reps = fill.clamp(SETUP_REPS.0, SETUP_REPS.1);
        }
        setup_s.push(seconds);
        if let Some(c) = s.capture {
            capture_mb_s.push(c.bytes as f64 / 1e6 / c.seconds);
        }
        suite = Some(s);
    }
    let suite = suite.expect("at least one set-up");
    eprintln!(
        "perfbench: {} cells on {jobs} worker thread(s), set-up {:.3}s (median of {reps})",
        suite.cells.len(),
        median(&mut setup_s)
    );

    let twins: Vec<Result<SimResult, String>> = parallel_map(jobs, suite.twins.len(), |i| {
        suite.twins[i].run(false).result
    });
    let mut checks = Checks::default();
    let mut out = Metrics::default();

    let first = sweep(&suite.cells, jobs, false);
    check_pass(&suite, &first, None, &twins, &mut checks);
    let reference = digests(&first);
    if args.trace {
        let traced = sweep(&suite.cells, jobs, true);
        check_pass(&suite, &traced, Some(&reference), &twins, &mut checks);
        let write_mb_per_s = median(&mut capture_mb_s);
        metrics::layers(&suite, &traced, &first, jobs, write_mb_per_s, &mut out);
        return Ok((out, checks));
    }

    let passes = (args.seconds / first.wall_s)
        .round()
        .clamp(1.0, (MAX_MEASURE_S / first.wall_s).max(1.0)) as usize;
    let minstr_per_s =
        |pass: &Pass| pass.instructions(&suite.cells) as f64 / 1e6 / pass.sim_seconds(jobs);
    let mut throughput = vec![minstr_per_s(&first)];
    for _ in 1..passes {
        let pass = sweep(&suite.cells, jobs, false);
        check_pass(&suite, &pass, Some(&reference), &twins, &mut checks);
        throughput.push(minstr_per_s(&pass));
    }
    eprintln!("perfbench: {passes} sweep(s), first {:.2}s", first.wall_s);

    out.push("sim_minstr_per_s", median(&mut throughput), "Minstr/s");
    out.push("setup_s", median(&mut setup_s), "s");
    let mut heap: Vec<u64> = first.runs.iter().map(|r| r.heap_bytes).collect();
    heap.sort_unstable_by(|a, b| b.cmp(a));
    let peak_heap: u64 = heap.iter().take(jobs).sum();
    out.push("peak_heap_mb", peak_heap as f64 / 1e6, "MB");
    let results: Vec<Option<&SimResult>> =
        first.runs.iter().map(|r| r.result.as_ref().ok()).collect();
    metrics::fidelity(&suite.cells, &results, &mut out);
    Ok((out, checks))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    if let Err(e) = std::fs::remove_dir_all(args.work_dir.join("captures")) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("perfbench: cleaning the capture directory: {e}");
        }
    }
    let (metrics, checks) = match outcome {
        Ok(done) => done,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::FAILURE;
        }
    };
    for message in &checks.messages {
        eprintln!("perfbench: check failed: {message}");
    }
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = checks.failed == 0 && finite;
    println!(
        "failed_ratio = {} ({} of {} cell runs)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            println!("{name} = {value} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
