//! Per-core QoS throttling figure: the starvation experiment of
//! `fig_multicore`, re-run with the per-core controllers and the
//! starvation watchdog in the comparison, plus a chaos-hardening cell.
//!
//! ```text
//! fig_qos [--config FILE] [--report FILE] [--quick]
//! ```
//!
//! Three throttle arms run on the `polite-vs-storm` mix at 2 cores under
//! `constrained` memory pressure: `off` (no throttle), `feedback` (PR 8's
//! chip-wide controller, which clamps the polite core alongside the
//! storm), and `percore` (one controller per core plus the chip-level
//! starvation watchdog). The figure's claim: `percore` keeps the polite
//! core within 1 % of its unthrottled IPC while the aggregate IPC stays
//! at or above the chip-wide feedback arm's.
//!
//! The chaos cell replays the same mix under the standard perturbation
//! schedule ([`bingo_sim::ChaosPlan::standard`], seeded by
//! `BINGO_CHAOS_SEED`) with the per-core throttle on, against a
//! prefetcher-throttle-off run under the *same* chaos, reporting the
//! bounded-slowdown ratio the property suite asserts.
//!
//! Knobs: `BINGO_QOS_SLO` overrides the watchdog's starvation SLO;
//! `BINGO_CHAOS_SEED` reseeds the chaos schedule; `BINGO_CHAOS=off`
//! skips the chaos cell entirely. The structured report
//! (one JSON line per experiment) lands in `--report` (default
//! `target/fig_qos_report.json`; CI uploads it as an artifact).

use bingo_bench::{f2, CellSpec, Cores, Json, MixConfig, Pressure, RunConfig, Table};
use bingo_sim::{ChaosPlan, SimResult, ThrottleMode};

/// The mix every arm runs: one streaming core behind Bingo, one
/// stress-storm core whose prefetches are mostly waste.
const QOS_MIX: &str = "polite-vs-storm";

fn main() {
    let (run_config, (mix_file, report_path)) = RunConfig::from_process(|args| {
        Ok((
            args.path("--config", "configs/mixes/contention.mix")?,
            args.path("--report", "target/fig_qos_report.json")?,
        ))
    });
    let scale = run_config.scale;

    let mixes =
        MixConfig::parse_file(&mix_file).unwrap_or_else(|e| panic!("{}: {e}", mix_file.display()));
    let mix = mixes
        .iter()
        .find(|m| m.name == QOS_MIX)
        .unwrap_or_else(|| panic!("{} does not declare mix {QOS_MIX:?}", mix_file.display()));
    let pressure = Pressure::CONSTRAINED;
    let qos_slo = run_config.qos_slo;
    let chaos_seed = run_config.chaos_seed;

    let run = |throttle: ThrottleMode, chaos: Option<ChaosPlan>| -> SimResult {
        let spec = CellSpec {
            pressure,
            throttle,
            qos_slo,
            chaos,
            ..CellSpec::new(Cores::Mix(mix.clone(), 2), scale)
        };
        spec.run()
            .unwrap_or_else(|e| panic!("qos cell aborted: {e}"))
    };

    // Calm arms: the starvation comparison.
    let off = run(ThrottleMode::Off, None);
    let feedback = run(ThrottleMode::Feedback, None);
    let percore = run(ThrottleMode::Percore, None);

    // "Aggregate" follows the mix-fairness convention (and PR 8's
    // published starvation verdict): the sum of per-core IPCs.
    let sum_ipc = |r: &SimResult| -> f64 { r.core_ipcs().iter().sum() };
    let polite = [
        off.core_ipcs()[0],
        feedback.core_ipcs()[0],
        percore.core_ipcs()[0],
    ];
    let storm = [
        off.core_ipcs()[1],
        feedback.core_ipcs()[1],
        percore.core_ipcs()[1],
    ];
    let aggregate = [sum_ipc(&off), sum_ipc(&feedback), sum_ipc(&percore)];
    let polite_ratio_feedback = polite[1] / polite[0];
    let polite_ratio_percore = polite[2] / polite[0];

    println!(
        "Per-core QoS throttling: {} @ 2 cores, {} pressure",
        mix.name, pressure.name
    );
    println!("(feedback = PR 8's chip-wide controller; percore = one controller");
    println!("per core plus the starvation watchdog)\n");
    let mut t = Table::new(vec![
        "Throttle",
        "Polite IPC",
        "Polite ratio",
        "Storm IPC",
        "Agg IPC",
    ]);
    for (i, name) in ["off", "feedback", "percore"].iter().enumerate() {
        t.row(vec![
            (*name).to_string(),
            f2(polite[i]),
            f2(polite[i] / polite[0]),
            f2(storm[i]),
            f2(aggregate[i]),
        ]);
    }
    println!("{}", t.render());

    let verdict = if polite_ratio_percore >= 0.99 && aggregate[2] >= aggregate[1] {
        "percore recovers the polite core (>=99% of unthrottled) without losing aggregate IPC"
    } else if polite_ratio_percore > polite_ratio_feedback {
        "percore improves on the chip-wide throttle but misses the 1% target at this scale"
    } else {
        "percore does not improve on the chip-wide throttle at this scale"
    };
    println!("=> {verdict}\n");

    let qos = percore
        .qos
        .as_ref()
        .expect("percore runs attach a QoS report");
    println!(
        "watchdog: {} epochs, {} starved, {} clamps, {} exemptions",
        qos.watchdog_epochs,
        qos.watchdog_starved_epochs,
        qos.watchdog_clamps,
        qos.watchdog_exempted
    );

    // Chaos cell: same mix, standard perturbation schedule, percore
    // throttle versus throttle-off under identical chaos. Part of the
    // committed figure, so it runs unless `BINGO_CHAOS=off` skips it.
    let chaos_cell = if run_config.chaos {
        let chaos_off = run(ThrottleMode::Off, Some(ChaosPlan::standard(chaos_seed)));
        let chaos_percore = run(ThrottleMode::Percore, Some(ChaosPlan::standard(chaos_seed)));
        let chaos_polite_ratio = chaos_percore.core_ipcs()[0] / chaos_off.core_ipcs()[0];
        println!("\nChaos cell (standard schedule, seed {chaos_seed:#x}):");
        let mut t = Table::new(vec!["Throttle", "Polite IPC", "Storm IPC", "Agg IPC"]);
        t.row(vec![
            "off".to_string(),
            f2(chaos_off.core_ipcs()[0]),
            f2(chaos_off.core_ipcs()[1]),
            f2(sum_ipc(&chaos_off)),
        ]);
        t.row(vec![
            "percore".to_string(),
            f2(chaos_percore.core_ipcs()[0]),
            f2(chaos_percore.core_ipcs()[1]),
            f2(sum_ipc(&chaos_percore)),
        ]);
        println!("{}", t.render());
        Some((chaos_off, chaos_percore, chaos_polite_ratio))
    } else {
        println!("\nChaos cell skipped (BINGO_CHAOS=off)");
        None
    };

    let watchdog = Json::obj([
        ("epochs", qos.watchdog_epochs.into()),
        ("starved_epochs", qos.watchdog_starved_epochs.into()),
        ("clamps", qos.watchdog_clamps.into()),
        ("exempted", qos.watchdog_exempted.into()),
    ]);
    let calm = Json::obj([
        ("mix", Json::str(&mix.name)),
        ("pressure", Json::str(pressure.name)),
        ("cores", 2.into()),
        ("polite_ipc", Json::decimals(&polite)),
        ("storm_ipc", Json::decimals(&storm)),
        ("aggregate_ipc", Json::decimals(&aggregate)),
        (
            "polite_ratio_feedback",
            Json::decimal(polite_ratio_feedback),
        ),
        ("polite_ratio_percore", Json::decimal(polite_ratio_percore)),
        ("watchdog", watchdog),
    ]);
    let mut report_lines = vec![Json::obj([("qos", calm)]).to_string()];
    if let Some((chaos_off, chaos_percore, chaos_polite_ratio)) = &chaos_cell {
        let chaos = Json::obj([
            ("mix", Json::str(&mix.name)),
            ("seed", chaos_seed.into()),
            ("off_ipc", Json::decimals(&chaos_off.core_ipcs())),
            ("percore_ipc", Json::decimals(&chaos_percore.core_ipcs())),
            ("polite_ratio", Json::decimal(*chaos_polite_ratio)),
        ]);
        report_lines.push(Json::obj([("qos_chaos", chaos)]).to_string());
    }
    if let Some(parent) = report_path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
    }
    std::fs::write(&report_path, report_lines.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));
    eprintln!(
        "[fig_qos] report: {} line(s) -> {}",
        report_lines.len(),
        report_path.display()
    );
}
