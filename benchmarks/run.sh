#!/bin/sh
# Builds benchmarks/amjsbench and runs it: the command BENCHMARK.json
# names. With a --workload it runs that one, as the driver does:
#
#   benchmarks/run.sh --workload fair-periodic --seed 42 --seconds 20 --trace 0
#
# Without one it runs all four in turn with the arguments given, each in
# a process of its own so that setup_s and peak_rss_mib stay per
# workload. The build and its cache stay inside the checkout, under
# .bench_build/.
set -eu

cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
GOCACHE=$build/gocache XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local \
	go build -o "$build/amjsbench" ./benchmarks/amjsbench

case " $* " in
*" --workload "* | *" -workload "* | *" --workload="* | *" -workload="*)
	exec "$build/amjsbench" "$@"
	;;
esac
for w in batch-atscale fair-periodic whatif-stream daemon-ingest; do
	"$build/amjsbench" -workload "$w" "$@"
done
