//! One simulation cell: what to build, how to run it in isolation, and
//! the numbers every workload reads back from it.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::thread::ThreadId;
use std::time::Instant;

use bingo_bench::{PrefetcherKind, Pressure};
use bingo_sim::{InstrSource, Prefetcher, SimResult, System, SystemConfig};
use bingo_sim::{TelemetryLevel, ThrottleMode};
use bingo_workloads::{TraceWorkload, Workload};

use crate::traced::{CellTrace, TracedPrefetcher, TracedSource};

/// Where a cell's per-core instruction streams come from.
#[derive(Clone, Debug)]
pub enum Streams {
    /// Live generators, one workload per core slot.
    Live(Vec<Workload>),
    /// A captured `.btrc` directory, replayed strictly.
    Replay(TraceWorkload),
}

/// A cell's part in the workload's fidelity metrics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Prefetching off: the reference IPC of its group and an MPKI sample.
    Baseline,
    /// Counts toward the headline gain over its group's baseline.
    Headline,
    /// Any other prefetching cell.
    Other,
}

/// One fully specified simulation: every option is explicit, nothing is
/// read from the environment.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable identity, unique within a workload.
    pub label: String,
    /// Cells sharing a group are compared with the group's baseline.
    pub group: String,
    pub role: Role,
    pub streams: Streams,
    /// One prefetcher per core.
    pub kinds: Vec<PrefetcherKind>,
    /// Retirement target per core (measurement window).
    pub targets: Vec<u64>,
    pub warmup: u64,
    pub seed: u64,
    pub pressure: Pressure,
    pub throttle: ThrottleMode,
    pub telemetry: TelemetryLevel,
}

impl Cell {
    pub fn cores(&self) -> usize {
        self.kinds.len()
    }

    /// Builds the cell's machine. With `trace` set, every instruction
    /// source and prefetcher is wrapped so the cell's host time can be
    /// split by layer; the simulated machine is unchanged either way.
    ///
    /// # Panics
    ///
    /// Panics if a replayed capture cannot be opened.
    pub fn build(&self, trace: Option<&Rc<RefCell<CellTrace>>>) -> System {
        let cores = self.cores();
        let mut cfg = SystemConfig::paper().with_cores(cores);
        self.pressure.apply(&mut cfg);
        cfg.qos_slo = None;
        let mut sources: Vec<Box<dyn InstrSource>> = match &self.streams {
            Streams::Live(workloads) => (0..cores)
                .map(|core| workloads[core].source_for_core(core, self.seed))
                .collect(),
            Streams::Replay(capture) => capture
                .sources(cores)
                .unwrap_or_else(|e| panic!("replay {}: {e}", capture.name())),
        };
        let mut prefetchers: Vec<Box<dyn Prefetcher>> =
            self.kinds.iter().map(|kind| kind.build()).collect();
        if let Some(sink) = trace {
            sources = sources
                .into_iter()
                .map(|inner| Box::new(TracedSource::new(inner, sink)) as Box<dyn InstrSource>)
                .collect();
            prefetchers = prefetchers
                .into_iter()
                .enumerate()
                .map(|(core, inner)| {
                    Box::new(TracedPrefetcher::new(inner, core, sink)) as Box<dyn Prefetcher>
                })
                .collect();
        }
        System::new_heterogeneous(cfg, sources, prefetchers, &self.targets)
            .with_warmup(self.warmup)
            .with_telemetry(self.telemetry)
            .with_throttle(self.throttle)
    }

    /// Builds and runs the cell, confining a panic or an aborted run to
    /// the returned value.
    pub fn run(&self, traced: bool) -> CellRun {
        let sink = traced.then(|| Rc::new(RefCell::new(CellTrace::new(self.cores()))));
        let mut build_s = 0.0;
        let mut run_s = 0.0;
        let mark = crate::heap::mark();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let started = Instant::now();
            let system = self.build(sink.as_ref());
            let built = Instant::now();
            build_s = (built - started).as_secs_f64();
            let outcome = system.try_run();
            run_s = built.elapsed().as_secs_f64();
            outcome
        }));
        let result = match attempt {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(abort)) => Err(abort.to_string()),
            Err(payload) => Err(panic_text(payload.as_ref())),
        };
        CellRun {
            result,
            build_s,
            run_s,
            heap_bytes: crate::heap::peak_since(mark),
            thread: std::thread::current().id(),
            finished: Instant::now(),
            trace: sink.map(|s| std::mem::take(&mut *s.borrow_mut())),
        }
    }

    /// Simulated instructions of a finished run, warm-up included.
    pub fn instructions(&self, result: &SimResult) -> u64 {
        result
            .cores
            .iter()
            .map(|core| core.instructions + self.warmup)
            .sum()
    }

    /// Table II LLC MPKI expected of the cell with prefetching off: the
    /// per-slot figures weighted by each slot's instruction target, as
    /// chip MPKI weights them.
    pub fn expected_mpki(&self) -> f64 {
        let workloads: Vec<Workload> = match &self.streams {
            Streams::Live(workloads) => workloads.clone(),
            Streams::Replay(capture) => {
                let slug = capture.name();
                let w = Workload::from_slug(slug).expect("captures are named by workload slug");
                vec![w; self.cores()]
            }
        };
        let total: u64 = self.targets.iter().sum();
        workloads
            .iter()
            .zip(&self.targets)
            .map(|(w, &t)| w.paper_mpki() * t as f64)
            .sum::<f64>()
            / total as f64
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one cell run ended, with its host timings.
#[derive(Debug)]
pub struct CellRun {
    pub result: Result<SimResult, String>,
    pub build_s: f64,
    pub run_s: f64,
    /// Most heap bytes the cell had live at once.
    pub heap_bytes: u64,
    pub thread: ThreadId,
    pub finished: Instant,
    /// Per-layer counters of a traced run.
    pub trace: Option<CellTrace>,
}

/// A stable 64-bit digest (FNV-1a) of every field of a result.
pub fn digest(result: &SimResult) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
