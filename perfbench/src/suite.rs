//! The three benchmark workloads: which cells each runs and what its
//! set-up does. README.md says why each was chosen.

use std::fs;
use std::path::Path;
use std::time::Instant;

use bingo_bench::{MixConfig, PrefetcherKind, Pressure};
use bingo_sim::{TelemetryLevel, ThrottleMode};
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

use crate::cells::{Cell, Role, Streams};

/// Retired instructions per core in the measurement window, and the
/// warm-up retired before statistics start (the repository's full scale).
pub const INSTRUCTIONS: u64 = 1_000_000;
pub const WARMUP: u64 = 1_500_000;

/// Cores fetch a few instructions past their retirement target; a capture
/// this much longer never wraps into a second replay pass.
const CAPTURE_SLACK: u64 = 256;

/// The workloads captured and replayed by `trace-replay`: the longest
/// cell of the grid, a server workload and a SPEC mix.
const CAPTURED: [Workload; 3] = [Workload::Em3d, Workload::DataServing, Workload::Mix2];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig8Grid,
    Contention,
    TraceReplay,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fig8-grid" => Some(Kind::Fig8Grid),
            "contention" => Some(Kind::Contention),
            "trace-replay" => Some(Kind::TraceReplay),
            _ => None,
        }
    }
}

/// What one capture pass wrote.
#[derive(Copy, Clone, Debug, Default)]
pub struct Capture {
    pub bytes: u64,
    pub records: u64,
    pub seconds: f64,
}

/// A workload ready to run.
#[derive(Debug)]
pub struct Suite {
    pub kind: Kind,
    pub cells: Vec<Cell>,
    /// `trace-replay` only: the live run each replayed cell must equal,
    /// index for index.
    pub twins: Vec<Cell>,
    pub capture: Option<Capture>,
}

/// Inputs shared by every set-up of one benchmark run.
#[derive(Debug)]
pub struct Inputs<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub mix_file: &'a Path,
    pub work_dir: &'a Path,
}

/// Sets the workload up once: parses its mixes or captures its traces,
/// then builds (and drops) every cell's machine. Returns the suite and
/// the seconds all of that took.
pub fn set_up(inputs: &Inputs) -> Result<(Suite, f64), String> {
    let started = Instant::now();
    let mut capture = None;
    let mut twins = Vec::new();
    let cells = match inputs.kind {
        Kind::Fig8Grid => fig8_grid(inputs.seed),
        Kind::Contention => {
            let mixes = MixConfig::parse_file(inputs.mix_file)
                .map_err(|e| format!("{}: {e}", inputs.mix_file.display()))?;
            contention(&mixes, inputs.seed)
        }
        Kind::TraceReplay => {
            let (cells, live, written) = trace_replay(inputs.seed, inputs.work_dir)?;
            twins = live;
            capture = Some(written);
            cells
        }
    };
    for cell in &cells {
        drop(cell.build(None));
    }
    let seconds = started.elapsed().as_secs_f64();
    let suite = Suite {
        kind: inputs.kind,
        cells,
        twins,
        capture,
    };
    Ok((suite, seconds))
}

fn cell(
    label: String,
    group: &str,
    role: Role,
    streams: Streams,
    kinds: Vec<PrefetcherKind>,
    targets: Vec<u64>,
    seed: u64,
) -> Cell {
    Cell {
        label,
        group: group.to_string(),
        role,
        streams,
        kinds,
        targets,
        warmup: WARMUP,
        seed,
        pressure: Pressure::NONE,
        throttle: ThrottleMode::Off,
        telemetry: TelemetryLevel::Off,
    }
}

fn role_of(kind: PrefetcherKind) -> Role {
    match kind {
        PrefetcherKind::None => Role::Baseline,
        PrefetcherKind::Bingo => Role::Headline,
        _ => Role::Other,
    }
}

/// Fig. 8: every Table II workload on the paper's 4-core machine under
/// no prefetcher and the six headline prefetchers.
fn fig8_grid(seed: u64) -> Vec<Cell> {
    let cores = 4;
    let kinds = std::iter::once(PrefetcherKind::None).chain(PrefetcherKind::HEADLINE);
    let kinds: Vec<PrefetcherKind> = kinds.collect();
    Workload::ALL
        .iter()
        .flat_map(|&w| {
            kinds.iter().map(move |&kind| {
                cell(
                    format!("{}/{}", w.slug(), kind.name()),
                    w.slug(),
                    role_of(kind),
                    Streams::Live(vec![w; cores]),
                    vec![kind; cores],
                    vec![INSTRUCTIONS; cores],
                    seed,
                )
            })
        })
        .collect()
}

/// Every committed contention mix at its declared core count, under each
/// pressure preset, with the declared prefetchers unthrottled and
/// per-core throttled, plus a prefetching-off arm per (mix, pressure)
/// as the reference of the gain and MPKI metrics.
fn contention(mixes: &[MixConfig], seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for mix in mixes {
        let cores = mix.core_count();
        let workloads: Vec<Workload> = (0..cores).map(|c| mix.assignment(c).workload).collect();
        let declared: Vec<PrefetcherKind> =
            (0..cores).map(|c| mix.assignment(c).prefetcher).collect();
        let targets: Vec<u64> = (0..cores)
            .map(|c| mix.assignment(c).instructions(INSTRUCTIONS))
            .collect();
        for pressure in Pressure::LADDER {
            let group = format!("{}/{}", mix.name, pressure.name);
            let arms = [
                (
                    Role::Baseline,
                    vec![PrefetcherKind::None; cores],
                    ThrottleMode::Off,
                ),
                (Role::Headline, declared.clone(), ThrottleMode::Off),
                (Role::Headline, declared.clone(), ThrottleMode::Percore),
            ];
            for (role, kinds, throttle) in arms {
                let arm = if role == Role::Baseline {
                    "none"
                } else {
                    "declared"
                };
                let mut c = cell(
                    format!("{group}/{arm}/throttle={throttle}"),
                    &group,
                    role,
                    Streams::Live(workloads.clone()),
                    kinds,
                    targets.clone(),
                    seed,
                );
                c.pressure = pressure;
                c.throttle = throttle;
                c.telemetry = TelemetryLevel::Counts;
                cells.push(c);
            }
        }
    }
    cells
}

/// Captures [`CAPTURED`] into `work_dir` (the write path), then replays
/// each capture under no prefetcher and Bingo (the read path). Returns
/// the replay cells, their live twins and what the capture wrote.
fn trace_replay(seed: u64, work_dir: &Path) -> Result<(Vec<Cell>, Vec<Cell>, Capture), String> {
    let cores = 4;
    let records = WARMUP + INSTRUCTIONS + CAPTURE_SLACK;
    let mut written = Capture::default();
    let mut cells = Vec::new();
    let mut twins = Vec::new();
    for w in CAPTURED {
        let dir = work_dir.join(w.slug());
        let started = Instant::now();
        capture_workload(w, cores, seed, records, DEFAULT_CHUNK_RECORDS, &dir)
            .map_err(|e| format!("capture {}: {e}", w.slug()))?;
        written.seconds += started.elapsed().as_secs_f64();
        let capture = TraceWorkload::open(&dir).map_err(|e| e.to_string())?;
        for core in 0..cores {
            let path = capture.core_path(core);
            let meta = fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            written.bytes += meta.len();
            written.records += records;
        }
        for kind in [PrefetcherKind::None, PrefetcherKind::Bingo] {
            let label = format!("{}/{}", w.slug(), kind.name());
            let make = |streams| {
                let targets = vec![INSTRUCTIONS; cores];
                cell(
                    label.clone(),
                    w.slug(),
                    role_of(kind),
                    streams,
                    vec![kind; cores],
                    targets,
                    seed,
                )
            };
            cells.push(make(Streams::Replay(capture.clone())));
            twins.push(make(Streams::Live(vec![w; cores])));
        }
    }
    Ok((cells, twins, written))
}
