#!/usr/bin/env bash
# Runs the benchmark several times per workload, each run with another
# seed, saves each run's output under OUTDIR and summarizes the spread of
# every end-to-end metric against its bound in BENCHMARK.json. Run from
# the repository root:
#
#   bash perfbench/steady.sh OUTDIR [RUNS] [WORKLOAD...]
#
# RUNS defaults to 10 and the workloads to all of BENCHMARK.json's. The
# seconds per run come from BENCHMARK.json's run_seconds. Compare two such
# directories (for example the parent commit's and a change's) with
#
#   .bench_build/bin/perfbench -compare OUTDIR_A OUTDIR_B
set -euo pipefail

outdir=${1:?usage: steady.sh OUTDIR [RUNS] [WORKLOAD...]}
runs=${2:-10}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(oltp adhoc analytic)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$outdir"
for wl in "${workloads[@]}"; do
	for ((i = 1; i <= runs; i++)); do
		seed=$((1000 + i))
		bash perfbench/run.sh --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$outdir/$wl-$seed.out"
		tail -n 1 "$outdir/$wl-$seed.out"
	done
done
.bench_build/bin/perfbench -compare "$outdir"
