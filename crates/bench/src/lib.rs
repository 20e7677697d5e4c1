//! # bingo-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! binary in `src/bin/` prints one figure's data; `cargo run -p bingo-bench
//! --release --bin all` regenerates everything. Pass `--quick` for a
//! reduced instruction budget (CI scale); every knob is listed on
//! [`RunConfig`].
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1_config` | Table I system configuration + Bingo storage (§VI-A) |
//! | `table2_workloads` | Table II baseline LLC MPKI |
//! | `fig2_events` | Fig. 2: accuracy & match probability of 5 event heuristics |
//! | `fig3_num_events` | Fig. 3: coverage & accuracy vs number of events |
//! | `fig4_redundancy` | Fig. 4: metadata redundancy of two-table TAGE |
//! | `fig6_table_size` | Fig. 6: Bingo coverage vs history entries |
//! | `fig7_coverage` | Fig. 7: coverage & overprediction, 6 prefetchers |
//! | `fig8_performance` | Fig. 8: performance improvement |
//! | `fig9_density` | Fig. 9: performance-density improvement |
//! | `fig10_isodegree` | Fig. 10: iso-degree comparison |
//! | `fig_timeliness` | prefetch-lifecycle timeliness & event-kind attribution |
//! | `ablation_voting` / `ablation_region` | design-choice ablations |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod checkpoint;
pub mod config;
pub mod differential;
mod json;
pub mod mix;
pub mod perf_record;
pub mod runner;
pub mod stats_export;
pub mod table;

pub use area::AreaModel;
pub use checkpoint::Checkpoint;
pub use config::{Args, ConfigError, RunConfig, DEFAULT_CHAOS_SEED};
pub use differential::{
    bingo_config_variants, diff_bingo, diff_bingo_instances, diff_with_oracle, fuzz_baseline,
    fuzz_bingo, shrink_bingo_mismatch, FuzzFailure, FuzzReport, Mismatch,
};
pub use json::Json;
pub use mix::{
    find_knee, CapacityCell, CapacitySearch, FairnessReport, MixAssignment, MixConfig, MixError,
    Pressure, Ramp, KNEE_FRACTION,
};
pub use perf_record::{
    calibration_record, load_records, time_median, BenchRecord, BenchWriter, Sample,
    CALIBRATION_KEY,
};
pub use runner::{
    geometric_mean, mean, parallel_map, CellFailure, CellOutcome, CellSpec, Cores, Evaluation,
    GridReport, MixCell, MixEvaluation, ParallelHarness, PrefetcherKind, RunScale,
};
pub use stats_export::StatsExport;
pub use table::{f2, pct, Table};
