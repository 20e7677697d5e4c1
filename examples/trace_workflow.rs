//! Trace-driven workflow: capture a workload's instruction stream once to
//! a framed `.btrc` file, profile its spatial structure offline, and
//! replay it against two prefetchers — the ChampSim-style methodology
//! this library supports end-to-end.
//!
//! ```sh
//! cargo run --release --example trace_workflow
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};

use bingo_repro::prefetcher::{Bingo, BingoConfig, EventKind, SpatialProfiler};
use bingo_repro::sim::{Instr, NoPrefetcher, Prefetcher, System, SystemConfig};
use bingo_repro::trace::{
    capture_source, Policy, ReplaySource, TraceReader, DEFAULT_CHUNK_RECORDS,
};
use bingo_repro::workloads::Workload;

fn main() {
    // 1. Capture 400K instructions of the Data Serving workload.
    let dir = std::env::temp_dir().join(format!("bingo-trace-workflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create capture dir");
    let path = dir.join("data-serving.btrc");
    let mut sources = Workload::DataServing.sources(1, 42);
    let file = BufWriter::new(File::create(&path).expect("create trace file"));
    let records = capture_source(&mut *sources[0], 400_000, DEFAULT_CHUNK_RECORDS, file)
        .expect("capture trace");
    let bytes = std::fs::metadata(&path).expect("stat trace").len();
    println!(
        "captured {records} instructions: {} KB in {}",
        bytes / 1024,
        path.display()
    );

    // 2. Profile the spatial structure offline: how predictable is this
    //    stream, per trigger event, before any prefetcher runs?
    let file = BufReader::new(File::open(&path).expect("open trace"));
    let mut reader = TraceReader::new(file, Policy::Strict).expect("read trace header");
    let mut profiler = SpatialProfiler::new(32, 64);
    let mut memory_accesses = 0u64;
    while let Some(instr) = reader.next_instr().expect("decode trace") {
        match instr {
            Instr::Load { pc, addr, .. } | Instr::Store { pc, addr } => {
                memory_accesses += 1;
                profiler.observe_parts(pc.raw(), addr.block().index());
            }
            Instr::Op => {}
        }
    }
    let report = profiler.finish();
    println!(
        "\nspatial profile: {memory_accesses} memory accesses, {} residencies, \
         mean footprint density {:.1}%",
        report.residencies,
        report.mean_density() * 100.0
    );
    for kind in [EventKind::PcAddress, EventKind::PcOffset, EventKind::Offset] {
        let e = report.event(kind);
        println!(
            "  {:<10}  recurrence {:5.1}%   footprint similarity {:5.1}%",
            kind.label(),
            e.match_probability() * 100.0,
            e.mean_similarity() * 100.0
        );
    }

    // 3. Replay the identical stream against a baseline and Bingo.
    let cfg = SystemConfig::tiny();
    let run = |prefetcher: Box<dyn Prefetcher>| {
        let source = ReplaySource::open(&path, Policy::Strict).expect("open replay");
        System::new(cfg, vec![Box::new(source)], vec![prefetcher], 150_000)
            .with_warmup(100_000)
            .run()
    };
    let base = run(Box::new(NoPrefetcher));
    let bingo = run(Box::new(Bingo::new(BingoConfig::paper())));
    println!("\n--- baseline ---\n{base}");
    println!("\n--- bingo ---\n{bingo}");
    println!(
        "\nspeedup from the identical replayed stream: {:+.1}%",
        (bingo.speedup_over(&base) - 1.0) * 100.0
    );
    std::fs::remove_dir_all(&dir).ok();
}
