#!/usr/bin/env bash
# Reproduce every table/figure of the paper at (near-)paper scale.
#
# Defaults below take ~1-3 hours on one core; the scaled-down versions
# that finish in minutes are just the benches' own defaults:
#   for b in build/bench/bench_*; do $b; done
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

OUT=${1:-paper_scale_results}
mkdir -p "$OUT"

# Figs. 2 & 3: paper uses 1000 jobs x 100 replications; 600x10 keeps the
# confidence bands comparable at a fraction of the cost.
./build/bench/bench_fig2_3_vs_minedf --jobs 600 --reps 10 \
    --csv "$OUT/fig2_3.csv" | tee "$OUT/fig2_3.txt"

for fig in fig4_exec_time fig5_smax fig6_start_prob fig7_deadline \
           fig8_arrival_rate fig9_resources; do
  ./build/bench/bench_$fig --jobs 500 --reps 10 \
      --csv "$OUT/$fig.csv" | tee "$OUT/$fig.txt"
done

./build/bench/bench_workload_stats --jobs 20000 | tee "$OUT/workload_stats.txt"
./build/bench/bench_ablation_separation --reps 10 | tee "$OUT/ablation_separation.txt"
./build/bench/bench_ablation_deferral --jobs 300 --reps 5 | tee "$OUT/ablation_deferral.txt"
./build/bench/bench_ablation_ordering --jobs 300 --reps 5 | tee "$OUT/ablation_ordering.txt"
./build/bench/bench_ablation_baseline_variants --jobs 400 --reps 5 | tee "$OUT/ablation_baseline_variants.txt"
./build/bench/bench_workflow_overhead --jobs 200 --reps 5 | tee "$OUT/workflow_overhead.txt"
./build/bench/bench_cp_micro | tee "$OUT/cp_micro.txt"
./build/bench/bench_des_micro | tee "$OUT/des_micro.txt"

echo "results in $OUT/"
