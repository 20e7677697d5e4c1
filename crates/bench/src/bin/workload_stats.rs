//! Workload spatial-structure profile (validation tool, not a paper
//! figure): measures, per workload, the footprint density and the
//! match-probability / footprint-similarity of each event heuristic —
//! the raw material behind Figs. 2–4 — directly from the access stream,
//! with no prefetcher or timing model involved.

use bingo::{EventKind, SpatialProfiler};
use bingo_bench::{parallel_map, pct, RunConfig, Table};
use bingo_sim::Instr;
use bingo_workloads::Workload;

fn main() {
    let (config, ()) = RunConfig::from_process(|_| Ok(()));
    let scale = config.scale;
    let accesses_per_workload = (scale.instructions_per_core / 20).max(10_000);

    // Each workload profiles independently; fan them out.
    let rows = parallel_map(config.jobs, Workload::ALL.len(), |wi| {
        let w = Workload::ALL[wi];
        let mut profiler = SpatialProfiler::new(32, 64);
        let mut sources = w.sources(1, scale.seed);
        let src = sources[0].as_mut();
        let mut seen = 0;
        while seen < accesses_per_workload {
            match src.next_instr() {
                Instr::Load { pc, addr, .. } | Instr::Store { pc, addr } => {
                    profiler.observe_parts(pc.raw(), addr.block().index());
                    seen += 1;
                }
                Instr::Op => {}
            }
        }
        let r = profiler.finish();
        let row = |k: EventKind| -> (String, String) {
            let e = r.event(k);
            (pct(e.match_probability()), pct(e.mean_similarity()))
        };
        let (pa_m, pa_s) = row(EventKind::PcAddress);
        let (po_m, po_s) = row(EventKind::PcOffset);
        let (of_m, of_s) = row(EventKind::Offset);
        eprintln!("done {w}");
        vec![
            w.name().to_string(),
            pct(r.mean_density()),
            pa_m,
            pa_s,
            po_m,
            po_s,
            of_m,
            of_s,
        ]
    });

    let mut t = Table::new(vec![
        "Workload",
        "Density",
        "P(match) PC+Addr",
        "Sim PC+Addr",
        "P(match) PC+Off",
        "Sim PC+Off",
        "P(match) Offset",
        "Sim Offset",
    ]);
    for row in rows {
        t.row(row);
    }
    println!(
        "Workload spatial-structure profile ({} accesses per workload).\n\
         'P(match)': trigger-event recurrence; 'Sim': mean footprint\n\
         similarity on recurrence (accuracy upper bound for that event).\n\n{t}",
        accesses_per_workload
    );
}
