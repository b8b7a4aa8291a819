GO ?= go

.PHONY: all build test race vet bench-smoke load-smoke whatif-smoke tournament-smoke fuzz fuzz-corpus verify benchmark profile loc run-daemon clean

all: build

build:
	$(GO) build ./...

# Every go test below carries an explicit -timeout sized from a
# measured run on the 2-vCPU dev box (noted per target), so no target
# can hang.

# ~30 s.
test:
	$(GO) test -timeout 5m ./...

# race exercises the concurrent paths (the fairness oracle's fair worlds
# running beside the main schedule, the engines' what-if rollout
# fan-out, the worker pool, and the daemon's ingest lanes and
# wall-clock loop) under the race detector; internal/sim's differential
# suite runs every policy, internal/core's included, in those worlds.
# internal/core is not listed: the window search is serial and the
# package starts no goroutine. ~2.5 min, nearly all of it internal/sim.
race:
	$(GO) test -race -timeout 10m ./internal/sim ./internal/parallel ./internal/server

# vet also gates formatting: CI has no other check, and a PR that
# moves code between files is where misformatting slips in.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l . | grep -v '^.bench_build/')" \
		|| { echo "gofmt -l reports:"; gofmt -l . | grep -v '^.bench_build/'; exit 1; }

# A one-iteration pass over the scheduling benchmarks: catches bench
# bit-rot without the minutes-long measured run. The ingest-decode and
# daemon-cycle families live in internal/server, so both paths are swept.
bench-smoke:
	$(GO) test -timeout 5m -run '^$$' -bench 'ScheduleIteration|PlanEarliestStart|PlanCommit|SimEndToEnd|SimAtScale|SimWhatIf|FairPeriodic' -benchtime 1x .
	$(GO) test -timeout 5m -run '^$$' -bench 'IngestDecode|DaemonCycle' -benchtime 1x ./internal/server

# load-smoke boots amjsd on an ephemeral port and batch-submits 100k
# jobs over real TCP loopback, failing below a conservative throughput
# floor (see scripts/load_smoke.sh for the MIN_RATE/JOBS/BATCH knobs).
load-smoke:
	./scripts/load_smoke.sh

# whatif-smoke boots amjsd with the simulation-in-the-loop tuner on an
# ephemeral port, batch-submits a contended trace, drains, and asserts
# via /v1/tuner that the planner committed at least one (BF, W) retune
# (see scripts/whatif_smoke.sh).
whatif-smoke:
	./scripts/whatif_smoke.sh

# tournament-smoke plays a mini cross-trace policy league (8 policies x
# {synthetic, SWF} traces) end to end through amjs-tournament, asserting
# the artifact schema, per-trace rank sanity, and byte-identical output
# at workers=1 and workers=8 (see scripts/tournament_smoke.sh).
tournament-smoke:
	./scripts/tournament_smoke.sh

# fuzz-corpus asserts the committed seed corpora exist: a fuzz target
# whose corpus directory vanished would silently fuzz from nothing.
fuzz-corpus:
	@test -n "$$(ls internal/workload/testdata/fuzz/FuzzSWF 2>/dev/null)" \
		|| { echo "missing FuzzSWF seed corpus"; exit 1; }
	@test -n "$$(ls internal/sim/testdata/fuzz/FuzzSchedule 2>/dev/null)" \
		|| { echo "missing FuzzSchedule seed corpus"; exit 1; }
	@test -n "$$(ls internal/cli/testdata/fuzz/FuzzPolicySpec 2>/dev/null)" \
		|| { echo "missing FuzzPolicySpec seed corpus"; exit 1; }

# fuzz runs each native fuzz target for FUZZTIME (default 10s) on top
# of the committed seed corpora: the SWF parser contract, the Paranoid
# engine with batch/stream cross-checking, and the policy/policy-list
# spec parsers. (-timeout does not bound the fuzzing phase itself;
# -fuzztime does.)
FUZZTIME ?= 10s
fuzz: fuzz-corpus
	$(GO) test -timeout 5m -run '^$$' -fuzz '^FuzzSWF$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -timeout 5m -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -timeout 5m -run '^$$' -fuzz '^FuzzPolicySpec$$' -fuzztime $(FUZZTIME) ./internal/cli

# verify is the pre-merge gate: vet, build, the full suite (which
# replays the fuzz seed corpora), the concurrent packages under the
# race detector, the seed-corpus presence check, and a benchmark smoke
# test. Every leg returns on its own; see README "Performance" for the
# measured wall time.
verify: vet build test race fuzz-corpus bench-smoke

# benchmark is the one measured perf run: all four BENCHMARK.json
# workloads through benchmarks/run.sh (2–3 min; see benchmarks/README.md
# for --workload, --trace and the result files). Run it in the
# foreground.
benchmark:
	sh benchmarks/run.sh

# profile captures CPU and heap profiles of the at-scale simulation
# (cpu.prof, mem.prof), of the fairness oracle on the Table II month
# (fair-cpu.prof, fair-mem.prof) and of the daemon's in-process
# submit-to-drain cycle (daemon-cpu.prof, daemon-mem.prof) for pprof,
# e.g. `go tool pprof -top fair-cpu.prof`.
profile:
	$(GO) test -timeout 10m -run '^$$' -bench 'SimAtScale' -benchtime 5x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) test -timeout 10m -run '^$$' -bench 'FairPeriodic' -benchtime 10x \
		-cpuprofile fair-cpu.prof -memprofile fair-mem.prof .
	$(GO) test -timeout 10m -run '^$$' -bench 'DaemonCycle' -benchtime 10x \
		-cpuprofile daemon-cpu.prof -memprofile daemon-mem.prof ./internal/server

# loc prints the Go line counts a simplicity change reports: every line
# of every non-test .go file outside benchmarks/ and inside it, then the
# test lines (hidden directories such as .bench_build/ are skipped).
loc:
	@echo "non-test Go outside benchmarks/: $$(find . -path './.*' -prune -o -path ./benchmarks -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "non-test Go inside benchmarks/:  $$(find benchmarks -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go:                         $$(find . -path './.*' -prune -o -name '*_test.go' -print | xargs cat | wc -l)"

# run-daemon boots a local scheduling daemon at 60x wall speed on the
# 512-node synthetic machine; see README "Running the daemon".
run-daemon:
	$(GO) run ./cmd/amjsd -addr 127.0.0.1:8080 -machine flat:512 \
		-policy adaptive:2d:1000 -speedup 60

clean:
	rm -f amjs.test server.test cpu.prof mem.prof fair-cpu.prof fair-mem.prof daemon-cpu.prof daemon-mem.prof
