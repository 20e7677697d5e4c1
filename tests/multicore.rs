//! Multi-core contention grid: equivalence, determinism, and fairness
//! invariants of the declarative mix path.
//!
//! The mix layer claims three things these tests pin down:
//!
//! 1. **Invisible at N=1** — a 1-core mix produces bit-for-bit the same
//!    `SimResult` as the classic single-core construction, for every
//!    workload (ALL + STRESS) and for both the no-prefetcher baseline
//!    and Bingo.
//! 2. **Homogeneous mixes collapse to the classic path** — a mix whose
//!    slots all carry the same assignment is the existing homogeneous
//!    sweep, at the paper's 4-core count.
//! 3. **Deterministic at any worker count and on repetition** — the mix
//!    grid's results do not depend on `BINGO_JOBS` or on how often the
//!    sweep runs, and the fairness metrics in the report recompute
//!    exactly from the per-core stats they summarize.

use bingo_bench::{
    parallel_map, CellSpec, Cores, MixAssignment, MixCell, MixConfig, ParallelHarness,
    PrefetcherKind, Pressure, RunConfig, RunScale,
};
use bingo_sim::{SimResult, System, SystemConfig};
use bingo_workloads::Workload;

const SCALE: RunScale = RunScale {
    instructions_per_core: 15_000,
    warmup_per_core: 10_000,
    seed: 42,
};

/// The classic construction, built here rather than through the runner
/// so the equivalence tests compare against an independent reference:
/// an explicit machine of `cores` cores, the workload's own source
/// vector, one prefetcher per core.
fn classic(workload: Workload, kind: PrefetcherKind, cores: usize) -> SimResult {
    let cfg = SystemConfig::paper().with_cores(cores);
    let sources = workload.sources(cores, SCALE.seed);
    System::with_prefetchers(cfg, sources, |_| kind.build(), SCALE.instructions_per_core)
        .with_warmup(SCALE.warmup_per_core)
        .run()
}

/// `mix` at `cores` cores through the runner, everything else default.
fn run_mix(mix: &MixConfig, cores: usize) -> SimResult {
    CellSpec::new(Cores::Mix(mix.clone(), cores), SCALE)
        .run()
        .expect("mix run completes")
}

/// A mix with `cores` identical slots.
fn homogeneous_mix(workload: Workload, kind: PrefetcherKind, cores: usize) -> MixConfig {
    MixConfig {
        name: "equiv".to_string(),
        cores: vec![
            MixAssignment {
                workload,
                prefetcher: kind,
                scale_percent: 100,
            };
            cores
        ],
        ramp: None,
    }
}

/// The heterogeneous mix the determinism tests run.
fn contention_mix() -> MixConfig {
    MixConfig::parse_str(
        "mix det\n\
         core 0 workload=streaming prefetcher=bingo\n\
         core 1 workload=stress-storm prefetcher=stride scale=50%\n\
         end\n",
    )
    .expect("valid mix")
    .remove(0)
}

#[test]
fn one_core_mix_is_bit_for_bit_the_classic_single_core_path() {
    let pairs: Vec<(Workload, PrefetcherKind)> = Workload::ALL
        .into_iter()
        .chain(Workload::STRESS)
        .flat_map(|w| [(w, PrefetcherKind::None), (w, PrefetcherKind::Bingo)])
        .collect();
    let mismatches: Vec<String> = parallel_map(4, pairs.len(), |i| {
        let (w, k) = pairs[i];
        let classic = classic(w, k, 1);
        let via_mix = run_mix(&homogeneous_mix(w, k, 1), 1);
        (classic != via_mix).then(|| format!("{} / {}", w.name(), k.name()))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        mismatches.is_empty(),
        "1-core mix diverged from the classic path on: {mismatches:?}"
    );
}

#[test]
fn four_core_homogeneous_mix_matches_the_classic_path() {
    for kind in [PrefetcherKind::None, PrefetcherKind::Bingo] {
        let classic = classic(Workload::Streaming, kind, 4);
        let via_mix = run_mix(&homogeneous_mix(Workload::Streaming, kind, 4), 4);
        assert_eq!(
            classic,
            via_mix,
            "4-core homogeneous mix diverged from the classic path ({})",
            kind.name()
        );
    }
}

#[test]
fn mix_grid_is_deterministic_across_worker_counts() {
    let mix2 = contention_mix();
    let cells = [
        MixCell {
            mix: mix2.clone(),
            cores: 2,
            pressure: Pressure::NONE,
        },
        MixCell {
            mix: mix2,
            cores: 4,
            pressure: Pressure::CONSTRAINED,
        },
    ];
    let serial = ParallelHarness::new(&RunConfig {
        jobs: 1,
        progress: false,
        ..RunConfig::new(SCALE)
    })
    .try_evaluate_mix_grid(&cells)
    .into_complete();
    let parallel = ParallelHarness::new(&RunConfig {
        jobs: 8,
        progress: false,
        ..RunConfig::new(SCALE)
    })
    .try_evaluate_mix_grid(&cells)
    .into_complete();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let what = format!("{}@{} / {}", s.mix_name, s.cores, s.pressure.name);
        assert_eq!(
            s.result, p.result,
            "{what}: result differs across worker counts"
        );
        assert_eq!(
            s.fairness.aggregate_ipc.to_bits(),
            p.fairness.aggregate_ipc.to_bits(),
            "{what}: aggregate IPC differs"
        );
        assert_eq!(
            s.fairness.min_max_ipc_ratio.to_bits(),
            p.fairness.min_max_ipc_ratio.to_bits(),
            "{what}: fairness ratio differs"
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&s.fairness.slowdowns),
            bits(&p.fairness.slowdowns),
            "{what}: slowdowns differ"
        );
    }
}

#[test]
fn repeated_mix_runs_are_bit_for_bit_equal() {
    let mix = contention_mix();
    for cores in [2usize, 4] {
        let run = || run_mix(&mix, cores);
        assert_eq!(run(), run(), "repeated {cores}-core mix run diverged");
    }
}

#[test]
fn fairness_metrics_recompute_from_per_core_stats() {
    let mix = contention_mix();
    let cells = [MixCell {
        mix: mix.clone(),
        cores: 2,
        pressure: Pressure::NONE,
    }];
    let evals = ParallelHarness::new(&RunConfig {
        jobs: 2,
        progress: false,
        ..RunConfig::new(SCALE)
    })
    .try_evaluate_mix_grid(&cells)
    .into_complete();
    let e = &evals[0];

    // Recompute every reported metric from the raw per-core stats and
    // independently re-run solos; all must match the report exactly.
    let ipcs = e.result.core_ipcs();
    assert_eq!(
        e.fairness.aggregate_ipc.to_bits(),
        ipcs.iter().sum::<f64>().to_bits(),
        "aggregate IPC is not the sum of per-core IPCs"
    );
    let max = ipcs.iter().cloned().fold(0.0_f64, f64::max);
    let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert_eq!(
        e.fairness.min_max_ipc_ratio.to_bits(),
        (min / max).to_bits(),
        "min/max IPC ratio does not recompute"
    );
    for (slot, &mix_ipc) in ipcs.iter().enumerate() {
        // The solo reference, built directly: the slot's stream on a
        // 1-core machine.
        let a = mix.assignment(slot);
        let solo = System::new_heterogeneous(
            SystemConfig::paper_single_core(),
            vec![a.workload.source_for_core(slot, SCALE.seed)],
            vec![a.prefetcher.build()],
            &[a.instructions(SCALE.instructions_per_core)],
        )
        .with_warmup(SCALE.warmup_per_core)
        .run();
        let solo_ipc: f64 = solo.core_ipcs().iter().sum();
        assert_eq!(
            e.fairness.slowdowns[slot].to_bits(),
            (solo_ipc / mix_ipc).to_bits(),
            "slot {slot} slowdown does not recompute from an independent solo run"
        );
    }
}
