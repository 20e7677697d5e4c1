#!/usr/bin/env bash
# Rewrites every committed results/<binary>.txt from its binary's stdout
# at full scale. Usage: scripts/regen_results.sh (from anywhere inside
# the repo); then `git diff results/` shows what the code now prints
# differently from the committed figures. Takes a few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

BINARIES=(
    table1_config table2_workloads
    fig2_events fig3_num_events fig4_redundancy fig6_table_size
    fig7_coverage fig8_performance fig9_density fig10_isodegree
    ablation_voting ablation_region ablation_training workload_stats
)

cargo build --release -p bingo-bench --bins
for bin in "${BINARIES[@]}"; do
    echo "==> $bin" >&2
    "target/release/$bin" > "results/$bin.txt"
done
