//! Multi-core contention figure: ramped capacity search over declared
//! workload mixes, per-core fairness, and the throttle-starvation
//! experiment.
//!
//! ```text
//! fig_multicore [--config FILE] [--mix NAME]... [--pressure NAME]...
//!               [--report FILE] [--quick]
//! ```
//!
//! Mixes come from a committed config file (default
//! `configs/mixes/contention.mix`; grammar in `bingo_bench::mix`). Each
//! selected mix runs at every core count of its `ramp` directive (or its
//! declared core count when unramped) under every selected memory
//! [`Pressure`] level, through
//! [`ParallelHarness::try_evaluate_mix_grid`] — so mix cells and their
//! per-slot solo runs parallelize, checkpoint (`BINGO_CHECKPOINT`), and
//! export stats (`BINGO_STATS`) like every other sweep. Per (mix,
//! pressure) the ramp becomes a [`CapacitySearch`]: aggregate IPC,
//! min/max IPC fairness, worst per-core slowdown versus solo at each
//! step, plus the capacity knee (the last core count whose added cores
//! still earn ≥ 50 % of the un-contended per-core IPC).
//!
//! The structured report — one JSON line per capacity search plus one
//! for the starvation experiment — lands in `--report` (default
//! `target/fig_multicore_report.json`; CI uploads it as an artifact).
//!
//! The starvation experiment answers PR 5's open question: the feedback
//! throttle is *chip-wide*, so when the storm core's wasted prefetches
//! trip it, the polite core's Bingo instance is clamped too. We run the
//! `polite-vs-storm` mix at 2 cores under the `constrained` pressure
//! level with the throttle off and with feedback, and report the polite
//! core's IPC ratio between the two.

use bingo_bench::{
    f2, CapacityCell, CapacitySearch, CellSpec, ConfigError, Cores, Json, MixCell, MixConfig,
    ParallelHarness, Pressure, RunConfig, RunScale, Table,
};
use bingo_sim::{SimResult, ThrottleMode};

/// The mix the starvation experiment runs, when selected.
const STARVATION_MIX: &str = "polite-vs-storm";

fn main() {
    let (run_config, (mix_file, report_path, picked, pressures)) =
        RunConfig::from_process(|args| {
            let pressures = args
                .values("--pressure")?
                .iter()
                .map(|name| {
                    Pressure::LADDER
                        .into_iter()
                        .find(|p| p.name == name)
                        .ok_or_else(|| {
                            let known: Vec<&str> =
                                Pressure::LADDER.iter().map(|p| p.name).collect();
                            let expectation = format!("one of {}", known.join("/"));
                            ConfigError::invalid("--pressure", &expectation, format!("{name:?}"))
                        })
                })
                .collect::<Result<Vec<Pressure>, ConfigError>>()?;
            Ok((
                args.path("--config", "configs/mixes/contention.mix")?,
                args.path("--report", "target/fig_multicore_report.json")?,
                args.values("--mix")?,
                if pressures.is_empty() {
                    Pressure::LADDER.to_vec()
                } else {
                    pressures
                },
            ))
        });
    let scale = run_config.scale;

    let mut mixes =
        MixConfig::parse_file(&mix_file).unwrap_or_else(|e| panic!("{}: {e}", mix_file.display()));
    if !picked.is_empty() {
        for name in &picked {
            assert!(
                mixes.iter().any(|m| &m.name == name),
                "unknown mix {name:?}; {} declares: {:?}",
                mix_file.display(),
                mixes.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
            );
        }
        mixes.retain(|m| picked.contains(&m.name));
    }

    // One flat grid over every (mix, pressure, ramp step): a single
    // harness call maximizes worker occupancy and dedups shared solos.
    let steps_of = |mix: &MixConfig| -> Vec<usize> {
        mix.ramp
            .map(|r| r.steps())
            .unwrap_or_else(|| vec![mix.core_count()])
    };
    let mut cells: Vec<MixCell> = Vec::new();
    for mix in &mixes {
        for &pressure in &pressures {
            for cores in steps_of(mix) {
                cells.push(MixCell {
                    mix: mix.clone(),
                    cores,
                    pressure,
                });
            }
        }
    }
    let mut harness = ParallelHarness::new(&run_config);
    let evals = harness.try_evaluate_mix_grid(&cells).into_complete();

    // Regroup the flat evaluations into per-(mix, pressure) searches.
    let mut searches: Vec<CapacitySearch> = Vec::new();
    let mut idx = 0;
    for mix in &mixes {
        for &pressure in &pressures {
            let steps = steps_of(mix);
            let measured: Vec<CapacityCell> = steps
                .iter()
                .map(|_| {
                    let e = &evals[idx];
                    idx += 1;
                    CapacityCell {
                        cores: e.cores,
                        fairness: e.fairness.clone(),
                    }
                })
                .collect();
            searches.push(CapacitySearch::from_steps(
                &mix.name,
                pressure.name,
                measured,
            ));
        }
    }
    assert_eq!(idx, evals.len(), "every evaluation was grouped");

    println!("Multi-core contention: capacity search over declared mixes");
    println!(
        "({} instructions/core after {} warmup, seed {}; knee = last core count",
        scale.instructions_per_core, scale.warmup_per_core, scale.seed
    );
    println!("whose added cores still earn >=50% of the un-contended per-core IPC)\n");
    let mut t = Table::new(vec![
        "Mix",
        "Pressure",
        "Cores",
        "Agg IPC",
        "Min/Max IPC",
        "Max slowdown",
        "Knee",
    ]);
    for s in &searches {
        for step in &s.steps {
            t.row(vec![
                s.mix.clone(),
                s.pressure.to_string(),
                step.cores.to_string(),
                f2(step.fairness.aggregate_ipc),
                f2(step.fairness.min_max_ipc_ratio),
                f2(step.fairness.max_slowdown()),
                if step.cores == s.knee {
                    "<-".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    println!("{}", t.render());

    let starvation = mixes
        .iter()
        .find(|m| m.name == STARVATION_MIX)
        .map(|mix| starvation_experiment(mix, scale));

    let mut report_lines: Vec<String> = searches.iter().map(CapacitySearch::to_json).collect();
    if let Some(line) = &starvation {
        report_lines.push(line.clone());
    }
    if let Some(parent) = report_path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
    }
    std::fs::write(&report_path, report_lines.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));
    eprintln!(
        "[fig_multicore] report: {} search(es) -> {}",
        report_lines.len(),
        report_path.display()
    );
}

/// Runs the throttle-starvation experiment and returns its report JSON
/// line: `polite-vs-storm` at 2 cores under `constrained` pressure,
/// throttle off versus chip-wide feedback.
fn starvation_experiment(mix: &MixConfig, scale: RunScale) -> String {
    let pressure = Pressure::CONSTRAINED;
    let run = |throttle: ThrottleMode| -> SimResult {
        let spec = CellSpec {
            pressure,
            throttle,
            ..CellSpec::new(Cores::Mix(mix.clone(), 2), scale)
        };
        spec.run()
            .unwrap_or_else(|e| panic!("starvation cell aborted: {e}"))
    };
    let off = run(ThrottleMode::Off);
    let feedback = run(ThrottleMode::Feedback);
    let polite = (off.core_ipcs()[0], feedback.core_ipcs()[0]);
    let storm = (off.core_ipcs()[1], feedback.core_ipcs()[1]);
    let polite_ratio = polite.1 / polite.0;

    println!(
        "Throttle starvation: {} @ 2 cores, {} pressure",
        mix.name, pressure.name
    );
    println!("(the feedback throttle is chip-wide: the storm core's wasted");
    println!("prefetches clamp the polite core's Bingo instance too)\n");
    let mut t = Table::new(vec!["Core", "Unthrottled IPC", "Feedback IPC", "Ratio"]);
    t.row(vec![
        "polite (streaming)".to_string(),
        f2(polite.0),
        f2(polite.1),
        f2(polite_ratio),
    ]);
    t.row(vec![
        "storm (stress-storm)".to_string(),
        f2(storm.0),
        f2(storm.1),
        f2(storm.1 / storm.0),
    ]);
    println!("{}", t.render());
    let verdict = if polite_ratio >= 0.95 {
        "the polite core keeps >=95% of its unthrottled IPC: no starvation"
    } else {
        "the polite core loses >5% of its unthrottled IPC: the chip-wide throttle starves it"
    };
    println!("=> {verdict}");
    println!("   (fig_qos reruns this comparison with the per-core throttle arm)\n");

    let report = Json::obj([
        ("mix", Json::str(&mix.name)),
        ("pressure", Json::str(pressure.name)),
        ("cores", 2.into()),
        ("polite_ipc_unthrottled", Json::decimal(polite.0)),
        ("polite_ipc_feedback", Json::decimal(polite.1)),
        ("polite_ratio", Json::decimal(polite_ratio)),
        ("storm_ipc_unthrottled", Json::decimal(storm.0)),
        ("storm_ipc_feedback", Json::decimal(storm.1)),
    ]);
    Json::obj([("starvation", report)]).to_string()
}
