//! One run configuration, parsed once at the binary's edge.
//!
//! The reproduction departs from the paper's Table I machine only through
//! the command line and the `BINGO_*` environment variables listed on
//! [`RunConfig`]. [`RunConfig::from_process`] is the only code that reads
//! either: every `main` calls it first and hands the parsed values down,
//! so library code never reads the process. [`RunConfig::parse`] is its
//! pure core (arguments and an environment lookup in, a checked config or
//! a [`ConfigError`] out), which is what the tests drive.
//!
//! Every malformed value fails with one message shape, `<NAME> must be
//! <expectation>, got <value>`. A set knob is a statement of intent:
//! intent that cannot be honored aborts the run (exit status 2) instead of
//! silently falling back to a default and producing numbers from the
//! wrong configuration. An argument that neither [`RunConfig`] nor the
//! binary claims is an error too, so `--quik` never runs the full-scale
//! sweep.

use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use bingo_sim::{TelemetryLevel, ThrottleMode};
use bingo_trace::{DEFAULT_CHUNK_RECORDS, MAX_CHUNK_RECORDS};
use bingo_workloads::Workload;

use crate::perf_record::BenchWriter;
use crate::runner::RunScale;
use crate::stats_export::StatsExport;

/// Every knob of a run. Each field replaces one command-line flag or
/// environment variable:
///
/// | Knob | Field | Default | Accepted values |
/// |------|-------|---------|-----------------|
/// | `--quick` | `scale` | [`RunScale::full`] | flag: [`RunScale::quick`] |
/// | `BINGO_WARMUP` | `scale.warmup_per_core` | 1 500 000 (100 000 with `--quick`) | unsigned integer |
/// | `BINGO_INSTR` | `scale.instructions_per_core` | 1 000 000 (150 000 with `--quick`) | unsigned integer |
/// | `BINGO_JOBS` | `jobs` | available parallelism | positive integer |
/// | `BINGO_CELL_TIMEOUT` | `cell_timeout` | none | non-negative seconds, fractions allowed |
/// | `BINGO_CHECKPOINT` | `checkpoint` | none | path of a JSONL resume file |
/// | `BINGO_TELEMETRY` | `telemetry` | `off` | `off`, `counts`, `trace` |
/// | `BINGO_THROTTLE` | `throttle` | `off` | `off`, `static`, `feedback`, `percore` |
/// | `BINGO_STATS` | `stats` | none | file, or directory (then `<binary>.json`) |
/// | `--csv DIR` | `csv` | none | directory (`.` when `--csv` is last) |
/// | `BINGO_PF_QUEUE` | `pf_queue` | each pressure level's bound | positive integer |
/// | `BINGO_TRACE_CHUNK` | `trace_chunk` | 16 384 | integer in 1..=1 048 576 |
/// | `BINGO_QOS_SLO` | `qos_slo` | none (0.25) | ratio in (0, 1] |
/// | `BINGO_CHAOS` | `chaos` | `standard` | `off`, `standard` |
/// | `BINGO_CHAOS_SEED` | `chaos_seed` | `0xB1A60` | unsigned 64-bit integer |
/// | `BINGO_BENCH_JSON` | `bench_json` | none | path of a bench-record file |
/// | `BINGO_BENCH_MERGE` | `bench_keep_best` | `replace` | `replace`, `best` |
/// | `BINGO_BENCH_THRESHOLD` | `bench_threshold` | 0.15 | fraction in [0, 1) |
///
/// Values are trimmed before parsing; paths are taken verbatim. Build a
/// config in code with struct-update syntax:
///
/// ```
/// use bingo_bench::{RunConfig, RunScale};
///
/// let config = RunConfig { jobs: 2, progress: false, ..RunConfig::new(RunScale::quick()) };
/// assert_eq!(config.throttle, bingo_sim::ThrottleMode::Off);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Instruction budget, warm-up and workload seed of every cell.
    pub scale: RunScale,
    /// Worker threads of parallel sweeps.
    pub jobs: usize,
    /// Whether sweeps print a `[cell]` progress line per simulated cell
    /// (on for binaries; there is no knob, tests turn it off).
    pub progress: bool,
    /// Soft wall-clock deadline of every cell.
    pub cell_timeout: Option<Duration>,
    /// Checkpoint file completed cells are recorded to and replayed from.
    pub checkpoint: Option<PathBuf>,
    /// Prefetch-lifecycle telemetry level of every cell.
    pub telemetry: TelemetryLevel,
    /// Prefetch-throttle mode of every cell.
    pub throttle: ThrottleMode,
    /// Stats-export file (or directory) every completed cell is written to.
    pub stats: Option<PathBuf>,
    /// Directory the figure binaries write `<figure>.csv` into.
    pub csv: Option<PathBuf>,
    /// Prefetch-queue depth overriding every pressure level of
    /// `stress_degrade`.
    pub pf_queue: Option<usize>,
    /// Records per chunk of newly captured traces (replay reads the chunk
    /// size from the file header).
    pub trace_chunk: u32,
    /// Starvation-SLO override of `fig_qos`'s per-core throttle; `None`
    /// keeps [`bingo_sim::DEFAULT_QOS_SLO`].
    pub qos_slo: Option<f64>,
    /// Whether `fig_qos` runs its chaos cell.
    pub chaos: bool,
    /// Seed of the chaos cell's [`bingo_sim::ChaosPlan::standard`]
    /// schedule, committed so every chaos cell replays the same
    /// perturbation log.
    pub chaos_seed: u64,
    /// Bench-record file the `harness = false` benches merge into.
    pub bench_json: Option<PathBuf>,
    /// Whether a re-measured bench key keeps the better of the old and new
    /// record instead of the new one.
    pub bench_keep_best: bool,
    /// Regression threshold of `bench_compare`, a fraction.
    pub bench_threshold: f64,
}

/// A malformed knob, a malformed or unknown argument: the message the
/// binary prints before exiting with status 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// An error with a free-form message, e.g. a usage line.
    pub fn new(message: impl Into<String>) -> ConfigError {
        ConfigError(message.into())
    }

    /// The uniform shape: `<name> must be <expectation>, got <got>`.
    pub fn invalid(name: &str, expectation: &str, got: impl fmt::Display) -> ConfigError {
        ConfigError(format!("{name} must be {expectation}, got {got}"))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Default seed of the chaos cell (see [`RunConfig::chaos_seed`]).
pub const DEFAULT_CHAOS_SEED: u64 = 0xB1A60;

impl RunConfig {
    /// The default configuration at `scale`: every knob unset.
    pub fn new(scale: RunScale) -> RunConfig {
        RunConfig {
            scale,
            jobs: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            progress: true,
            cell_timeout: None,
            checkpoint: None,
            telemetry: TelemetryLevel::Off,
            throttle: ThrottleMode::Off,
            stats: None,
            csv: None,
            pf_queue: None,
            trace_chunk: DEFAULT_CHUNK_RECORDS,
            qos_slo: None,
            chaos: true,
            chaos_seed: DEFAULT_CHAOS_SEED,
            bench_json: None,
            bench_keep_best: false,
            bench_threshold: 0.15,
        }
    }

    /// Parses the process's arguments and `BINGO_*` environment: the
    /// shared knobs into the [`RunConfig`], the binary's own flags with
    /// `own` (which claims them from [`Args`]). Every `main` calls this
    /// first.
    ///
    /// On a malformed knob, a malformed flag value or an argument nobody
    /// claimed, prints the error and exits with status 2.
    pub fn from_process<T>(
        own: impl FnOnce(&mut Args) -> Result<T, ConfigError>,
    ) -> (RunConfig, T) {
        let env = |name: &str| std::env::var(name).ok();
        RunConfig::parse_with(std::env::args().skip(1), env, own).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`RunConfig::parse_with`] for a command line with no flags beyond
    /// the shared ones.
    ///
    /// # Errors
    ///
    /// As [`RunConfig::parse_with`].
    pub fn parse<E>(
        args: impl IntoIterator<Item = String>,
        env: E,
    ) -> Result<RunConfig, ConfigError>
    where
        E: Fn(&str) -> Option<String>,
    {
        RunConfig::parse_with(args, env, |_| Ok(())).map(|(config, ())| config)
    }

    /// Builds the config from explicit arguments (program name excluded)
    /// and an environment lookup, then lets `own` claim the binary's own
    /// flags.
    ///
    /// # Errors
    ///
    /// The first malformed knob or flag value, or the first argument left
    /// unclaimed.
    pub fn parse_with<T, E>(
        args: impl IntoIterator<Item = String>,
        env: E,
        own: impl FnOnce(&mut Args) -> Result<T, ConfigError>,
    ) -> Result<(RunConfig, T), ConfigError>
    where
        E: Fn(&str) -> Option<String>,
    {
        let mut args = Args::new(args);
        let scale = if args.flag("--quick") {
            RunScale::quick()
        } else {
            RunScale::full()
        };
        // A trailing `--csv` names the working directory.
        if args.args.last().is_some_and(|a| a == "--csv") {
            args.args.push(".".to_string());
            args.claimed.push(false);
        }
        let csv = args.value("--csv")?.map(PathBuf::from);

        let env = Env(env);
        let unsigned = "an unsigned integer";
        let positive = "a positive integer";
        let chunk = format!("a positive integer <= {MAX_CHUNK_RECORDS}");
        let timeout = env.number("BINGO_CELL_TIMEOUT", "a number of seconds", |_| true)?;
        let default = RunConfig::new(scale);
        let config = RunConfig {
            scale: RunScale {
                warmup_per_core: env
                    .number("BINGO_WARMUP", unsigned, |_| true)?
                    .unwrap_or(scale.warmup_per_core),
                instructions_per_core: env
                    .number("BINGO_INSTR", unsigned, |_| true)?
                    .unwrap_or(scale.instructions_per_core),
                seed: scale.seed,
            },
            jobs: env
                .number("BINGO_JOBS", positive, |&n| n > 0)?
                .unwrap_or(default.jobs),
            progress: default.progress,
            cell_timeout: timeout
                .map(|secs: f64| {
                    let valid = secs.is_finite() && secs >= 0.0;
                    let expectation = "a non-negative number of seconds";
                    check(secs, valid, "BINGO_CELL_TIMEOUT", expectation)
                })
                .transpose()?
                .map(Duration::from_secs_f64),
            checkpoint: env.path("BINGO_CHECKPOINT"),
            telemetry: env
                .parsed(
                    "BINGO_TELEMETRY",
                    "one of off/counts/trace",
                    TelemetryLevel::parse,
                )?
                .unwrap_or(default.telemetry),
            throttle: env
                .parsed(
                    "BINGO_THROTTLE",
                    "one of off/static/feedback/percore",
                    ThrottleMode::parse,
                )?
                .unwrap_or(default.throttle),
            stats: env.path("BINGO_STATS"),
            csv,
            pf_queue: env.number("BINGO_PF_QUEUE", positive, |&n| n > 0)?,
            trace_chunk: env
                .number("BINGO_TRACE_CHUNK", &chunk, |&n| {
                    n > 0 && n <= MAX_CHUNK_RECORDS
                })?
                .unwrap_or(default.trace_chunk),
            qos_slo: env.number("BINGO_QOS_SLO", "a ratio in (0, 1]", |&slo| {
                bingo_sim::check_qos_slo(slo).is_ok()
            })?,
            chaos: env
                .parsed("BINGO_CHAOS", "one of off/standard", |v| match v {
                    "off" => Some(false),
                    "standard" => Some(true),
                    _ => None,
                })?
                .unwrap_or(default.chaos),
            chaos_seed: env
                .number("BINGO_CHAOS_SEED", "an unsigned 64-bit integer", |_| true)?
                .unwrap_or(default.chaos_seed),
            bench_json: env.path("BINGO_BENCH_JSON"),
            bench_keep_best: env
                .parsed("BINGO_BENCH_MERGE", "one of replace/best", |v| match v {
                    "replace" => Some(false),
                    "best" => Some(true),
                    _ => None,
                })?
                .unwrap_or(default.bench_keep_best),
            bench_threshold: env
                .number("BINGO_BENCH_THRESHOLD", "a fraction in [0, 1)", |t| {
                    (0.0..1.0).contains(t)
                })?
                .unwrap_or(default.bench_threshold),
        };
        let own = own(&mut args)?;
        args.finish()?;
        Ok((config, own))
    }

    /// Creates the stats export [`RunConfig::stats`] names, if any.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created: a run asked to export stats
    /// must not silently drop them.
    pub fn stats_export(&self) -> Option<StatsExport> {
        self.stats.as_ref().map(|path| {
            StatsExport::create(path)
                .unwrap_or_else(|e| panic!("BINGO_STATS: cannot create {path:?}: {e}"))
        })
    }

    /// Opens the bench-record writer [`RunConfig::bench_json`] names, if
    /// any, with the [`RunConfig::bench_keep_best`] merge policy.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be opened or parsed: a run asked to
    /// record measurements must not drop them.
    pub fn bench_writer(&self) -> Option<BenchWriter> {
        self.bench_json.as_ref().map(|path| {
            let writer = BenchWriter::open(path)
                .unwrap_or_else(|e| panic!("BINGO_BENCH_JSON: cannot open {path:?}: {e}"));
            if self.bench_keep_best {
                writer.keep_best()
            } else {
                writer
            }
        })
    }
}

/// The environment lookup [`RunConfig::parse_with`] reads knobs through.
struct Env<E>(E);

impl<E: Fn(&str) -> Option<String>> Env<E> {
    /// The knob `name` taken verbatim as a path.
    fn path(&self, name: &str) -> Option<PathBuf> {
        (self.0)(name).map(PathBuf::from)
    }

    /// The knob `name`: `Ok(None)` when unset, else what `parse` makes of
    /// the trimmed value, or an error quoting the raw value.
    fn parsed<T>(
        &self,
        name: &str,
        expectation: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ConfigError> {
        (self.0)(name)
            .map(|raw| {
                parse(raw.trim())
                    .ok_or_else(|| ConfigError::invalid(name, expectation, format!("{raw:?}")))
            })
            .transpose()
    }

    /// [`Env::parsed`] with [`str::parse`], then range-checked by `valid`
    /// (the error then shows the parsed value).
    fn number<T: FromStr + fmt::Display>(
        &self,
        name: &str,
        expectation: &str,
        valid: impl FnOnce(&T) -> bool,
    ) -> Result<Option<T>, ConfigError> {
        self.parsed(name, expectation, |v| v.parse().ok())?
            .map(|n| {
                let ok = valid(&n);
                check(n, ok, name, expectation)
            })
            .transpose()
    }
}

/// `value` when `ok`, else the uniform error showing the value.
fn check<T: fmt::Display>(
    value: T,
    ok: bool,
    name: &str,
    expectation: &str,
) -> Result<T, ConfigError> {
    if ok {
        Ok(value)
    } else {
        Err(ConfigError::invalid(name, expectation, value))
    }
}

/// The command-line arguments of one run, each claimed by at most one
/// parser: [`RunConfig::parse_with`] claims the shared flags, the
/// binary's own parser the rest, and whatever is left unclaimed is an
/// error.
#[derive(Clone, Debug)]
pub struct Args {
    args: Vec<String>,
    claimed: Vec<bool>,
}

impl Args {
    fn new(args: impl IntoIterator<Item = String>) -> Args {
        let args: Vec<String> = args.into_iter().collect();
        let claimed = vec![false; args.len()];
        Args { args, claimed }
    }

    /// Every argument, claimed or not, in command-line order.
    pub fn all(&self) -> &[String] {
        &self.args
    }

    /// Whether `flag` appears (exact match); claims every occurrence.
    pub fn flag(&mut self, flag: &str) -> bool {
        let mut found = false;
        for (arg, claimed) in self.args.iter().zip(&mut self.claimed) {
            if !*claimed && arg == flag {
                *claimed = true;
                found = true;
            }
        }
        found
    }

    /// The value of every `flag VALUE` pair, in order; claims both.
    ///
    /// # Errors
    ///
    /// `flag` appears without a value after it.
    pub fn values(&mut self, flag: &str) -> Result<Vec<String>, ConfigError> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.claimed[i] || self.args[i] != flag {
                i += 1;
                continue;
            }
            if self.claimed.get(i + 1) != Some(&false) {
                return Err(ConfigError::new(format!("{flag} needs a value")));
            }
            self.claimed[i] = true;
            self.claimed[i + 1] = true;
            values.push(self.args[i + 1].clone());
            i += 2;
        }
        Ok(values)
    }

    /// The value of the last `flag VALUE` pair, if any.
    ///
    /// # Errors
    ///
    /// As [`Args::values`].
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, ConfigError> {
        Ok(self.values(flag)?.pop())
    }

    /// [`Args::value`] as a path, `default` when `flag` is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::values`].
    pub fn path(&mut self, flag: &str, default: &str) -> Result<PathBuf, ConfigError> {
        Ok(PathBuf::from(
            self.value(flag)?.as_deref().unwrap_or(default),
        ))
    }

    /// [`Args::value`] converted by `parse`.
    ///
    /// # Errors
    ///
    /// As [`Args::values`], or `parse` rejects the value.
    pub fn parsed<T>(
        &mut self,
        flag: &str,
        expectation: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ConfigError> {
        self.value(flag)?
            .map(|v| {
                parse(&v).ok_or_else(|| ConfigError::invalid(flag, expectation, format!("{v:?}")))
            })
            .transpose()
    }

    /// The workloads named by every `--workload NAME` (see
    /// [`Workload::from_name`]), deduplicated in order; all of `eligible`
    /// when none is named.
    ///
    /// # Errors
    ///
    /// A name that is not one of `eligible`.
    pub fn workloads(&mut self, eligible: &[Workload]) -> Result<Vec<Workload>, ConfigError> {
        let mut picked = Vec::new();
        for name in self.values("--workload")? {
            let w = Workload::from_name(&name)
                .filter(|w| eligible.contains(w))
                .ok_or_else(|| {
                    let slugs: Vec<&str> = eligible.iter().map(|w| w.slug()).collect();
                    let expectation = format!("one of {}", slugs.join("/"));
                    ConfigError::invalid("--workload", &expectation, format!("{name:?}"))
                })?;
            if !picked.contains(&w) {
                picked.push(w);
            }
        }
        Ok(if picked.is_empty() {
            eligible.to_vec()
        } else {
            picked
        })
    }

    /// Fails on the first argument nobody claimed.
    fn finish(&self) -> Result<(), ConfigError> {
        match self
            .args
            .iter()
            .zip(&self.claimed)
            .find(|(_, &claimed)| !claimed)
        {
            Some((arg, _)) => Err(ConfigError::new(format!("unknown argument {arg:?}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Parses `args` against an environment holding exactly `vars`.
    fn parse(args: &[&str], vars: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        let env = |name: &str| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        };
        RunConfig::parse(strings(args), env)
    }

    fn with_env(vars: &[(&str, &str)]) -> RunConfig {
        parse(&[], vars).expect("valid knobs")
    }

    /// The message a single malformed knob yields.
    fn rejection(name: &str, value: &str) -> String {
        parse(&[], &[(name, value)])
            .expect_err("the knob must be rejected")
            .to_string()
    }

    #[test]
    fn unset_knobs_keep_the_defaults() {
        assert_eq!(with_env(&[]), RunConfig::new(RunScale::full()));
    }

    #[test]
    fn parse_trims_and_converts() {
        assert_eq!(
            with_env(&[("BINGO_INSTR", " 42 ")])
                .scale
                .instructions_per_core,
            42
        );
    }

    #[test]
    fn parse_rejects_with_the_uniform_message() {
        assert_eq!(
            rejection("BINGO_WARMUP", "4x2"),
            "BINGO_WARMUP must be an unsigned integer, got \"4x2\""
        );
    }

    #[test]
    fn quick_flag_is_read_exactly() {
        assert_eq!(
            parse(&["--quick"], &[]).expect("quick").scale,
            RunScale::quick()
        );
        assert_eq!(with_env(&[]).scale, RunScale::full());
        // Near-misses are not quick mode: they are unknown arguments.
        for near in ["--quickly", "quick", "--QUICK", "--quik"] {
            let err = parse(&[near], &[]).expect_err(near);
            assert_eq!(err.to_string(), format!("unknown argument {near:?}"));
        }
    }

    #[test]
    fn scale_overrides_apply_on_top_of_quick() {
        let vars = [("BINGO_WARMUP", "1234"), ("BINGO_INSTR", "5678")];
        let scale = parse(&["--quick"], &vars).expect("valid").scale;
        assert_eq!(scale.warmup_per_core, 1234);
        assert_eq!(scale.instructions_per_core, 5678);
        assert_eq!(scale.seed, RunScale::quick().seed);
    }

    #[test]
    fn scale_overrides_reject_garbage() {
        assert_eq!(
            rejection("BINGO_WARMUP", "1e6"),
            "BINGO_WARMUP must be an unsigned integer, got \"1e6\""
        );
        assert_eq!(
            rejection("BINGO_INSTR", "100k"),
            "BINGO_INSTR must be an unsigned integer, got \"100k\""
        );
    }

    #[test]
    fn jobs_must_be_positive() {
        assert_eq!(with_env(&[("BINGO_JOBS", "3")]).jobs, 3);
        assert_eq!(
            rejection("BINGO_JOBS", "0"),
            "BINGO_JOBS must be a positive integer, got 0"
        );
        assert!(
            rejection("BINGO_JOBS", "many").starts_with("BINGO_JOBS must be a positive integer")
        );
    }

    #[test]
    fn pf_queue_rejects_zero() {
        assert_eq!(with_env(&[("BINGO_PF_QUEUE", "8")]).pf_queue, Some(8));
        assert_eq!(
            rejection("BINGO_PF_QUEUE", "0"),
            "BINGO_PF_QUEUE must be a positive integer, got 0"
        );
    }

    #[test]
    fn trace_chunk_rejects_zero() {
        assert!(rejection("BINGO_TRACE_CHUNK", "0")
            .starts_with("BINGO_TRACE_CHUNK must be a positive integer"));
    }

    #[test]
    fn trace_chunk_is_bounded_by_the_format_cap() {
        let max = MAX_CHUNK_RECORDS.to_string();
        assert_eq!(
            with_env(&[("BINGO_TRACE_CHUNK", &max)]).trace_chunk,
            MAX_CHUNK_RECORDS
        );
        assert_eq!(with_env(&[]).trace_chunk, DEFAULT_CHUNK_RECORDS);
        let over = (MAX_CHUNK_RECORDS + 1).to_string();
        assert_eq!(
            rejection("BINGO_TRACE_CHUNK", &over),
            format!("BINGO_TRACE_CHUNK must be a positive integer <= {max}, got {over}")
        );
    }

    #[test]
    fn parse_cell_timeout_accepts_seconds() {
        let timeout = |v: &str| with_env(&[("BINGO_CELL_TIMEOUT", v)]).cell_timeout;
        assert_eq!(timeout("2"), Some(Duration::from_secs(2)));
        assert_eq!(timeout(" 0.25 "), Some(Duration::from_millis(250)));
        assert_eq!(timeout("0"), Some(Duration::ZERO));
        assert_eq!(with_env(&[]).cell_timeout, None);
    }

    #[test]
    fn parse_cell_timeout_rejects_garbage() {
        assert!(rejection("BINGO_CELL_TIMEOUT", "fast")
            .starts_with("BINGO_CELL_TIMEOUT must be a number of seconds"));
    }

    #[test]
    fn parse_cell_timeout_rejects_negative() {
        for bad in ["-1", "inf"] {
            assert!(
                rejection("BINGO_CELL_TIMEOUT", bad).contains("non-negative"),
                "{bad}"
            );
        }
    }

    #[test]
    fn qos_slo_rejects_non_numeric() {
        assert_eq!(
            rejection("BINGO_QOS_SLO", "fast"),
            "BINGO_QOS_SLO must be a ratio in (0, 1], got \"fast\""
        );
    }

    #[test]
    fn qos_slo_rejects_zero() {
        assert_eq!(
            rejection("BINGO_QOS_SLO", "0"),
            "BINGO_QOS_SLO must be a ratio in (0, 1], got 0"
        );
    }

    #[test]
    fn qos_slo_rejects_above_one() {
        assert_eq!(
            rejection("BINGO_QOS_SLO", "1.5"),
            "BINGO_QOS_SLO must be a ratio in (0, 1], got 1.5"
        );
    }

    #[test]
    fn qos_slo_rejects_nan() {
        assert_eq!(
            rejection("BINGO_QOS_SLO", "NaN"),
            "BINGO_QOS_SLO must be a ratio in (0, 1], got NaN"
        );
    }

    #[test]
    fn qos_slo_accepts_the_closed_upper_bound() {
        assert_eq!(with_env(&[("BINGO_QOS_SLO", " 1 ")]).qos_slo, Some(1.0));
        assert_eq!(with_env(&[("BINGO_QOS_SLO", "0.25")]).qos_slo, Some(0.25));
    }

    #[test]
    fn chaos_rejects_unknown_spec() {
        assert_eq!(
            rejection("BINGO_CHAOS", "maximum"),
            "BINGO_CHAOS must be one of off/standard, got \"maximum\""
        );
    }

    #[test]
    fn chaos_parses_both_modes() {
        assert!(!with_env(&[("BINGO_CHAOS", "off")]).chaos);
        assert!(with_env(&[("BINGO_CHAOS", " standard ")]).chaos);
        assert!(with_env(&[]).chaos, "unset runs the committed chaos cell");
    }

    #[test]
    fn chaos_seed_rejects_negative() {
        assert_eq!(
            with_env(&[("BINGO_CHAOS_SEED", "727648")]).chaos_seed,
            727_648
        );
        assert_eq!(
            rejection("BINGO_CHAOS_SEED", "-1"),
            "BINGO_CHAOS_SEED must be an unsigned 64-bit integer, got \"-1\""
        );
    }

    #[test]
    fn telemetry_and_throttle_levels_parse_or_reject() {
        let config = with_env(&[("BINGO_TELEMETRY", "counts"), ("BINGO_THROTTLE", "percore")]);
        assert_eq!(config.telemetry, TelemetryLevel::Counts);
        assert_eq!(config.throttle, ThrottleMode::Percore);
        assert_eq!(
            rejection("BINGO_TELEMETRY", "loud"),
            "BINGO_TELEMETRY must be one of off/counts/trace, got \"loud\""
        );
        assert_eq!(
            rejection("BINGO_THROTTLE", "hard"),
            "BINGO_THROTTLE must be one of off/static/feedback/percore, got \"hard\""
        );
    }

    #[test]
    fn bench_knobs_parse_or_reject() {
        let config = with_env(&[
            ("BINGO_BENCH_JSON", "target/bench/candidate.json"),
            ("BINGO_BENCH_MERGE", "best"),
            ("BINGO_BENCH_THRESHOLD", "0.3"),
        ]);
        assert_eq!(
            config.bench_json,
            Some(PathBuf::from("target/bench/candidate.json"))
        );
        assert!(config.bench_keep_best);
        assert_eq!(config.bench_threshold, 0.3);
        assert!(!with_env(&[("BINGO_BENCH_MERGE", "replace")]).bench_keep_best);
        assert_eq!(
            rejection("BINGO_BENCH_MERGE", "worst"),
            "BINGO_BENCH_MERGE must be one of replace/best, got \"worst\""
        );
        assert_eq!(
            rejection("BINGO_BENCH_THRESHOLD", "1.5"),
            "BINGO_BENCH_THRESHOLD must be a fraction in [0, 1), got 1.5"
        );
    }

    #[test]
    fn paths_are_taken_verbatim() {
        let config = with_env(&[
            ("BINGO_CHECKPOINT", "/tmp/cp.jsonl"),
            ("BINGO_STATS", "out/"),
        ]);
        assert_eq!(config.checkpoint, Some(PathBuf::from("/tmp/cp.jsonl")));
        assert_eq!(config.stats, Some(PathBuf::from("out/")));
    }

    #[test]
    fn csv_takes_a_directory_or_the_working_directory_when_last() {
        let csv = |args: &[&str]| parse(args, &[]).expect("valid").csv;
        assert_eq!(
            csv(&["--csv", "out", "--quick"]),
            Some(PathBuf::from("out"))
        );
        assert_eq!(csv(&["--quick", "--csv"]), Some(PathBuf::from(".")));
        assert_eq!(csv(&["--quick"]), None);
    }

    #[test]
    fn own_flags_are_claimed_and_leftovers_rejected() {
        let own = |args: &mut Args| {
            Ok((
                args.flag("--verify"),
                args.values("--mix")?,
                args.parsed("--traces", "a number", |v| v.parse::<u64>().ok())?,
                args.path("--out", "target/default")?,
            ))
        };
        let none = |_: &str| None;
        let argv = strings(&[
            "--mix", "a", "--quick", "--verify", "--mix", "b", "--traces", "7",
        ]);
        let (config, (verify, mixes, traces, out)) =
            RunConfig::parse_with(argv, none, own).expect("every argument is claimed");
        assert_eq!(config.scale, RunScale::quick());
        assert!(verify);
        assert_eq!(mixes, ["a", "b"]);
        assert_eq!(traces, Some(7));
        assert_eq!(out, PathBuf::from("target/default"));
        let argv = strings(&["--out", "elsewhere"]);
        let (_, (.., out)) = RunConfig::parse_with(argv, none, own).expect("valid");
        assert_eq!(out, PathBuf::from("elsewhere"));

        let err = |argv: &[&str]| {
            RunConfig::parse_with(strings(argv), none, own)
                .expect_err("rejected")
                .to_string()
        };
        assert_eq!(
            err(&["--verify", "--report", "x"]),
            "unknown argument \"--report\""
        );
        assert_eq!(err(&["--mix"]), "--mix needs a value");
        assert_eq!(
            err(&["--traces", "many"]),
            "--traces must be a number, got \"many\""
        );
    }

    #[test]
    fn workload_flags_parse_every_spelling_of_the_eligible_set() {
        let pick = |argv: &[&str], eligible: &[Workload]| {
            RunConfig::parse_with(strings(argv), |_| None, |args| args.workloads(eligible))
                .map(|(_, picked)| picked)
        };
        let argv = [
            "--workload",
            "em3d",
            "--workload",
            "Data Serving",
            "--workload",
            "em3d",
        ];
        assert_eq!(
            pick(&argv, &Workload::ALL).expect("valid"),
            [Workload::Em3d, Workload::DataServing]
        );
        assert_eq!(pick(&[], &Workload::ALL).expect("valid"), Workload::ALL);
        let err = pick(&["--workload", "stress-chase"], &Workload::ALL).expect_err("ineligible");
        assert!(
            err.to_string()
                .starts_with("--workload must be one of data-serving/sat-solver/"),
            "{err}"
        );
    }
}
