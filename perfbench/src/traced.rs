//! The traced run: forwarding wrappers around the two layer boundaries
//! the simulator exposes (`InstrSource`, `Prefetcher`), plus the
//! standalone replay that prices one LLC lookup and one DRAM read.
//!
//! Reading the clock around every call doubles a cell's wall time, so a
//! wrapper times one call in [`SAMPLE_EVERY`] and scales the sampled time
//! by its exact call count. The cost of one clock read is measured at
//! start-up and subtracted from every sample.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use bingo_sim::telemetry::PrefetchSource;
use bingo_sim::throttle::ThrottleLevel;
use bingo_sim::{AccessInfo, BlockAddr, Cache, Dram, Instr, InstrSource, Lookup, Prefetcher};
use bingo_sim::{IngestReport, SystemConfig};

/// One call in this many is timed.
const SAMPLE_EVERY: u64 = 16;

/// LLC demand accesses recorded per cell for the standalone replay.
pub const RECORDED_PER_CELL: usize = 32 * 1024;

/// Median cost of one `Instant::now()` pair, in nanoseconds.
fn clock_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                black_box(t).elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Exact call count and sampled host time of one layer boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallClock {
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl CallClock {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.sampled += 1;
        self.sampled_ns += ns.saturating_sub(clock_ns());
        out
    }

    /// Estimated total host time of every call, in nanoseconds.
    pub fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns as f64 * self.calls as f64 / self.sampled as f64
        }
    }

    fn absorb(&mut self, other: &CallClock) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Everything the wrappers of one cell observed.
#[derive(Debug, Default)]
pub struct CellTrace {
    /// All instruction-source calls of the cell.
    pub source: CallClock,
    /// Prefetcher calls, per core.
    pub prefetchers: Vec<PrefetcherTrace>,
    /// The first [`RECORDED_PER_CELL`] LLC demand accesses, as
    /// `block << 1 | is_write`.
    pub llc_stream: Vec<u64>,
}

impl CellTrace {
    pub fn new(cores: usize) -> Self {
        CellTrace {
            prefetchers: vec![PrefetcherTrace::default(); cores],
            ..Default::default()
        }
    }
}

/// One core's prefetcher calls: the time of every per-event call, and
/// how many of them were demand accesses.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetcherTrace {
    pub clock: CallClock,
    pub accesses: u64,
}

/// Forwards every `InstrSource` method to `inner`, timing each call.
pub struct TracedSource {
    inner: Box<dyn InstrSource>,
    clock: CallClock,
    sink: Rc<RefCell<CellTrace>>,
}

impl TracedSource {
    pub fn new(inner: Box<dyn InstrSource>, sink: &Rc<RefCell<CellTrace>>) -> Self {
        TracedSource {
            inner,
            clock: CallClock::default(),
            sink: Rc::clone(sink),
        }
    }
}

impl InstrSource for TracedSource {
    fn next_instr(&mut self) -> Instr {
        let inner = &mut self.inner;
        self.clock.time(|| inner.next_instr())
    }

    fn ingest_report(&self) -> Option<IngestReport> {
        self.inner.ingest_report()
    }

    fn take_ops(&mut self, max: usize) -> usize {
        let inner = &mut self.inner;
        self.clock.time(|| inner.take_ops(max))
    }

    fn peek_ops(&mut self) -> usize {
        let inner = &mut self.inner;
        self.clock.time(|| inner.peek_ops())
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        self.sink.borrow_mut().source.absorb(&self.clock);
    }
}

/// Forwards every `Prefetcher` method to `inner`, timing the three
/// per-event calls and recording the LLC demand stream it is shown.
pub struct TracedPrefetcher {
    inner: Box<dyn Prefetcher>,
    core: usize,
    /// Timed calls of `on_access`, `on_eviction` and `on_fill`.
    clock: CallClock,
    accesses: u64,
    stream: Vec<u64>,
    sink: Rc<RefCell<CellTrace>>,
}

impl TracedPrefetcher {
    pub fn new(inner: Box<dyn Prefetcher>, core: usize, sink: &Rc<RefCell<CellTrace>>) -> Self {
        TracedPrefetcher {
            inner,
            core,
            clock: CallClock::default(),
            accesses: 0,
            stream: Vec::new(),
            sink: Rc::clone(sink),
        }
    }
}

impl Prefetcher for TracedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.accesses += 1;
        if self.stream.len() < RECORDED_PER_CELL {
            self.stream
                .push(info.block.index() << 1 | u64::from(info.is_write));
        }
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_access(info, out));
    }

    fn on_eviction(&mut self, block: BlockAddr) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_eviction(block));
    }

    fn on_fill(&mut self, block: BlockAddr, prefetch: bool) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_fill(block, prefetch));
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn debug_stats(&self) -> String {
        self.inner.debug_stats()
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.metrics()
    }

    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        self.inner.set_throttle_level(level);
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.inner.last_burst_source()
    }
}

impl Drop for TracedPrefetcher {
    fn drop(&mut self) {
        let mut sink = self.sink.borrow_mut();
        let slot = &mut sink.prefetchers[self.core];
        slot.clock.absorb(&self.clock);
        slot.accesses += self.accesses;
        let room = RECORDED_PER_CELL.saturating_sub(sink.llc_stream.len());
        let take = room.min(self.stream.len());
        sink.llc_stream.extend_from_slice(&self.stream[..take]);
    }
}

/// Host cost of the cache and DRAM models, priced from outside the
/// simulator: `stream` (recorded LLC demand accesses) replayed through a
/// standalone paper LLC, and every resulting miss through a standalone
/// DRAM. Returns (ns per LLC lookup, ns per DRAM read), each the median
/// of three replays.
pub fn price_cache_and_dram(stream: &[u64]) -> (f64, f64) {
    if stream.is_empty() {
        return (0.0, 0.0);
    }
    let cfg = SystemConfig::paper();
    let mut lookup_ns = Vec::new();
    let mut read_ns = Vec::new();
    for _ in 0..3 {
        let mut llc = Cache::new(cfg.llc);
        let mut misses = Vec::new();
        let started = Instant::now();
        for (i, &rec) in stream.iter().enumerate() {
            let block = BlockAddr::new(rec >> 1);
            let write = rec & 1 == 1;
            let now = i as u64 * 4;
            if let Lookup::Miss = llc.demand_access(block, now, write) {
                // The fill lands at once, so no MSHR is ever held.
                llc.allocate_fill(block, now, false);
                black_box(llc.complete_fill(block, write));
                misses.push(block);
            }
        }
        lookup_ns.push(started.elapsed().as_nanos() as f64 / stream.len() as f64);

        let mut dram = Dram::new(cfg.dram);
        let started = Instant::now();
        for (i, &block) in misses.iter().enumerate() {
            black_box(dram.read_tagged(block, i as u64 * 16, false));
        }
        if !misses.is_empty() {
            read_ns.push(started.elapsed().as_nanos() as f64 / misses.len() as f64);
        }
    }
    (crate::median(&mut lookup_ns), crate::median(&mut read_ns))
}
