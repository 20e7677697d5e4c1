//! Acceptance properties of the fault-injection layer: Bingo whose
//! metadata is corrupted by a seeded `FaultInjector` (footprint bit flips,
//! history-entry drops, dropped prefetches at 1–10 % rates) must complete
//! a full simulation without panicking or deadlocking, stay deterministic
//! for a fixed fault seed, and only *lose coverage*, degrading toward
//! no-prefetch behavior — never corrupting the simulation itself.

use bingo_bench::{CellSpec, Cores, ParallelHarness, PrefetcherKind, RunConfig, RunScale};
use bingo_workloads::Workload;

fn scale(seed: u64) -> RunScale {
    RunScale {
        instructions_per_core: 20_000,
        warmup_per_core: 5_000,
        seed,
    }
}

const RATES: [f64; 3] = [0.01, 0.05, 0.10];

#[test]
fn corrupted_bingo_completes_and_degrades_gracefully() {
    for (workload, seed) in [(Workload::Em3d, 31), (Workload::Streaming, 32)] {
        let mut h = ParallelHarness::new(&RunConfig {
            jobs: 2,
            progress: false,
            ..RunConfig::new(scale(seed))
        });
        let fault_free = h.evaluate(workload, PrefetcherKind::Bingo);
        for rate in RATES {
            // Completing `evaluate` at all is the no-panic/no-deadlock
            // half of the property (a livelock would hit the simulator's
            // cycle limit and panic).
            let faulty = h.evaluate(
                workload,
                PrefetcherKind::BingoFaulty {
                    fault_seed: 0xFA17,
                    rate,
                },
            );
            let cov = faulty.coverage.coverage;
            // Coverage stays between no-prefetch (0, the metric's floor)
            // and fault-free Bingo, with a small tolerance for lucky
            // spurious prefetches at this scale.
            assert!(
                cov.is_finite() && cov >= 0.0,
                "{} rate {rate}: coverage {cov} must be a non-negative number",
                workload.name()
            );
            assert!(
                cov <= fault_free.coverage.coverage + 0.05,
                "{} rate {rate}: corrupted coverage {cov:.3} exceeds fault-free {:.3}",
                workload.name(),
                fault_free.coverage.coverage
            );
            // The baseline the cell is judged against is untouched by the
            // injector (corruption is confined to the prefetcher).
            assert_eq!(faulty.baseline, fault_free.baseline);
        }
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let kind = PrefetcherKind::BingoFaulty {
        fault_seed: 0xDE7E_2717,
        rate: 0.05,
    };
    let a = CellSpec::new(Cores::Uniform(Workload::Em3d, kind), scale(33))
        .run()
        .unwrap();
    let b = CellSpec::new(Cores::Uniform(Workload::Em3d, kind), scale(33))
        .run()
        .unwrap();
    assert_eq!(
        a, b,
        "same workload seed + fault seed must reproduce exactly"
    );

    // A different fault seed corrupts differently (the injector stream is
    // real, not a no-op).
    let c = CellSpec::new(
        Cores::Uniform(
            Workload::Em3d,
            PrefetcherKind::BingoFaulty {
                fault_seed: 0xDE7E_2718,
                rate: 0.05,
            },
        ),
        scale(33),
    )
    .run()
    .unwrap();
    assert_ne!(a, c, "distinct fault seeds should perturb the run");
}

#[test]
fn total_prefetch_loss_collapses_to_no_prefetch_behavior() {
    // Rate 1.0 drops every prefetch candidate: the memory system sees
    // exactly the no-prefetcher access stream, so misses match the
    // baseline and coverage is exactly zero — the documented degradation
    // endpoint.
    let mut h = ParallelHarness::new(&RunConfig {
        jobs: 2,
        progress: false,
        ..RunConfig::new(scale(34))
    });
    let eval = h.evaluate(
        Workload::Streaming,
        PrefetcherKind::BingoFaulty {
            fault_seed: 1,
            rate: 1.0,
        },
    );
    assert_eq!(eval.result.llc.pf_issued, 0, "every prefetch was dropped");
    assert_eq!(
        eval.coverage.misses_with_prefetch, eval.coverage.baseline_misses,
        "with all prefetches dropped the miss stream is the baseline's"
    );
    assert_eq!(eval.coverage.coverage.to_bits(), 0f64.to_bits());
}
