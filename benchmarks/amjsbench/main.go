// Command amjsbench is the repository's benchmark: four closed-loop
// workloads, each loading a different layer, measured from outside
// through the layers' exported functions. benchmarks/README.md defines
// the workloads and metrics; BENCHMARK.json at the repository root is
// the contract the numbers are gated against.
//
//	amjsbench -workload fair-periodic -seed 42 -seconds 20 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) prints the per-layer metrics and writes the spans to
// <out>/trace-<workload>.json. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any op failed its correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"amjs/internal/stats"
)

// setupRounds is how often a run sets the workload up from scratch;
// setup_s is the median round, which keeps a cold first round (page
// faults, heap growth) out of the reported number.
const setupRounds = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the end-to-end metrics and their units, in the order
// BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"jobs_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_kjob", "ms"},
	{"alloc_kib_per_job", "KiB"},
	{"peak_rss_mib", "MiB"},
	{"avg_bsld", "ratio"},
	{"setup_s", "s"},
}

// environment records where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// result is the full record of one run, written beside the trace; the
// last line of standard output carries only the four contract keys.
type result struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	WindowSeconds float64           `json:"window_seconds"`
	Traced        bool              `json:"traced"`
	Env           environment       `json:"env"`
	Ops           int               `json:"ops"`
	FailedOps     int               `json:"failed_ops"`
	Jobs          int               `json:"jobs"`
	Samples       map[string]int    `json:"samples"` // sample count behind each percentile
	Metrics       map[string]metric `json:"metrics"`
	Errors        []string          `json:"errors,omitempty"`
}

// options are the knobs of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	outDir   string
	sizes    sizes
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amjsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{sizes: defaultSizes}
	fs.StringVar(&opt.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloadNames))
	fs.Int64Var(&opt.seed, "seed", 42, "seed of every generated trace and request body")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics; 0: the end-to-end metrics")
	fs.StringVar(&opt.outDir, "out", "benchmarks/out", "directory for result-*.json and trace-*.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "amjsbench: usage: amjsbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	opt.window = time.Duration(*seconds * float64(time.Second))
	opt.traced = *trace == 1

	res, err := measure(opt)
	if err != nil {
		fmt.Fprintf(stderr, "amjsbench: %v\n", err)
		return 1
	}
	if err := report(res, opt.outDir, stdout); err != nil {
		fmt.Fprintf(stderr, "amjsbench: %v\n", err)
		return 1
	}
	if res.FailedOps > 0 {
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "amjsbench: %s\n", e)
		}
		return 1
	}
	return 0
}

// measure runs the protocol for one workload: set-up rounds, then one
// timed window of back-to-back steps, then (traced) the layer probes.
func measure(opt options) (*result, error) {
	var tr *tracer
	rounds := setupRounds
	if opt.traced {
		// One round: setup_s is an end-to-end metric and comes from
		// untraced runs only.
		tr, rounds = newTracer(), 1
	}
	var (
		w       scenario
		setupMS []float64
	)
	for i := 0; i < rounds; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newScenario(opt.workload, opt.sizes); err != nil {
			return nil, err
		}
		if err := w.setup(opt.seed, tr); err != nil {
			w.close()
			return nil, err
		}
		setupMS = append(setupMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	defer w.close()

	// Drop the set-up's garbage and give its pages back before the
	// window, so the window's allocation and peak RSS are its own.
	debug.FreeOSMemory()
	resetPeakRSS()

	var plain, traced recorder
	cpu0, alloc0 := cpuTime(), totalAlloc()
	for op := 1; plain.wall+traced.wall < opt.window || (tr != nil && op <= 2); op++ {
		// A traced run alternates untraced and traced steps, so both
		// halves see the same minutes of the shared box and their
		// ratio is the tracing overhead.
		if tr != nil && op%2 == 0 {
			w.step(tr, op, &traced)
		} else {
			w.step(nil, op, &plain)
		}
	}
	cpu, alloc := cpuTime()-cpu0, totalAlloc()-alloc0
	peak := peakRSSMiB()

	res := &result{
		Workload:      opt.workload,
		Seed:          opt.seed,
		WindowSeconds: opt.window.Seconds(),
		Traced:        opt.traced,
		Env: environment{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  runtime.Version(),
		},
		Ops:       plain.ops + traced.ops,
		FailedOps: plain.failed + traced.failed,
		Jobs:      plain.jobs + traced.jobs,
		Samples:   map[string]int{},
		Metrics:   map[string]metric{},
		Errors:    append(plain.errs, traced.errs...),
	}
	if res.Jobs == 0 {
		return res, nil // every op failed; there is nothing to divide by
	}

	if opt.traced {
		layers := make(map[string]float64, len(layerMetrics))
		for _, m := range layerMetrics {
			layers[m.name] = 0
		}
		if err := w.layers(tr, &plain, &traced, layers); err != nil {
			return nil, err
		}
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		if n := len(tr.windowMS("POST /v1/jobs")); n > 0 {
			res.Samples["server.post_ms_p50"], res.Samples["server.post_ms_p99"] = n, n
		}
		path := filepath.Join(opt.outDir, "trace-"+opt.workload+".json")
		if err := tr.write(path, opt.workload, opt.seed); err != nil {
			return nil, err
		}
		return res, nil
	}

	jobs := float64(plain.jobs)
	values := map[string]float64{
		"jobs_per_s":        jobs / plain.wall.Seconds(),
		"op_ms_p50":         stats.Percentile(plain.opMS, 50),
		"cpu_ms_per_kjob":   float64(cpu.Nanoseconds()) / 1e6 / (jobs / 1000),
		"alloc_kib_per_job": float64(alloc) / 1024 / jobs,
		"peak_rss_mib":      peak,
		"avg_bsld":          w.avgBSLD(),
		"setup_s":           stats.Percentile(setupMS, 50) / 1000,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	res.Samples["op_ms_p50"] = len(plain.opMS)
	res.Samples["setup_s"] = len(setupMS)
	return res, nil
}

// report prints every metric by name with its unit, writes the full
// result object, and ends with the contract line.
func report(res *result, outDir string, stdout io.Writer) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s  seed %d  window %.1fs  traced %v  ops %d  failed_ops %d  jobs %d\n",
		res.Workload, res.Seed, res.WindowSeconds, res.Traced, res.Ops, res.FailedOps, res.Jobs)
	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.CPUModel)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-32s %16.6g %s", name, m.Value, m.Unit)
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(stdout, line)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}

	suffix := ""
	if res.Traced {
		suffix = "-trace"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result-"+res.Workload+suffix+".json"), full, 0o644); err != nil {
		return err
	}

	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.FailedOps == 0, res.Ops, res.FailedOps, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}
