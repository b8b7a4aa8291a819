#!/bin/sh
# Runs every workload N times untraced, each run with another seed as
# the driver does, and prints for each workload x end-to-end metric the
# median, the quartiles, their distance as a share of the median, and
# (max-min)/median. Exits non-zero when a quartile distance exceeds the
# metric's bound in BENCHMARK.json (setup_s is reported, not gated: the
# driver exempts it too). The committed bounds were set from its output.
#
#   benchmarks/repeat.sh [N=5] [first seed=1]
#
# The runs are kept in benchmarks/out/repeat-<first seed>/, so two sets
# can be compared: benchmarks/spread.py takes one directory or two.
set -eu

n=${1:-5}
first=${2:-1}
cd "$(dirname "$0")/.."
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
dir=benchmarks/out/repeat-$first
rm -rf "$dir"
mkdir -p "$dir"

seed=$first
while [ "$seed" -lt $((first + n)) ]; do
	for w in batch-atscale fair-periodic whatif-stream daemon-ingest; do
		echo "repeat.sh: $w seed $seed" >&2
		sh benchmarks/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$dir/run.out"
		tail -n 1 "$dir/run.out" >"$dir/$w-$seed.json"
	done
	seed=$((seed + 1))
done
rm -f "$dir/run.out"
exec python3 benchmarks/spread.py "$dir"
