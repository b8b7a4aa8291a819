package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// testSizes shrinks every workload so the whole protocol (three set-up
// rounds, a window, the probes) takes a fraction of a second.
var testSizes = sizes{yearJobs: 600, monthJobs: 300, daemonJobs: 2000, probeBudget: time.Millisecond}

func testOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 7, window: 200 * time.Millisecond,
		traced: traced, outDir: t.TempDir(), sizes: testSizes,
	}
}

// declared is the part of BENCHMARK.json the tests hold the program to.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that got is exactly the declared set, once each,
// with the declared units and finite values.
func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s was not emitted", w.Name)
		case !metricName.MatchString(w.Name):
			t.Errorf("metric name %q is outside the contract's alphabet", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: unit %q, declared %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v is not finite", w.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s = %v, want a positive value", w.Name, m.Value)
		}
	}
}

// lastLine parses what report printed last: the driver's contract.
func lastLine(t *testing.T, out string) (keys []string, metrics map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not one JSON object: %v", err)
	}
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	return keys, metrics
}

func TestWorkloadNamesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
}

func TestEndToEndMetrics(t *testing.T) {
	d := readDeclared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opt := testOptions(t, name, false)
			res, err := measure(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedOps != 0 || res.Ops < 1 || res.Jobs < 1 {
				t.Fatalf("ops %d, failed_ops %d, jobs %d: %v", res.Ops, res.FailedOps, res.Jobs, res.Errors)
			}
			checkMetrics(t, res.Metrics, d.EndToEnd, true)
			if res.Samples["op_ms_p50"] != res.Ops || res.Samples["setup_s"] != setupRounds {
				t.Errorf("sample counts %v, want op_ms_p50=%d setup_s=%d", res.Samples, res.Ops, setupRounds)
			}
			if res.Env.NProc < 1 || res.Env.GOMAXPROCS < 1 || res.Env.GoVersion == "" || res.Env.CPUModel == "" {
				t.Errorf("environment not recorded: %+v", res.Env)
			}

			var out bytes.Buffer
			if err := report(res, opt.outDir, &out); err != nil {
				t.Fatal(err)
			}
			keys, metrics := lastLine(t, out.String())
			if got := strings.Join(keys, " "); got != "attempted correct failed metrics" {
				t.Errorf("last line has keys %q", got)
			}
			checkMetrics(t, metrics, d.EndToEnd, true)
			if _, err := os.Stat(filepath.Join(opt.outDir, "result-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestLayerMetricsAndTrace(t *testing.T) {
	d := readDeclared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opt := testOptions(t, name, true)
			res, err := measure(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedOps != 0 {
				t.Fatalf("failed_ops %d: %v", res.FailedOps, res.Errors)
			}
			// Shares and the tracing overhead may be slightly negative
			// on a noisy box; every layer metric must be finite.
			checkMetrics(t, res.Metrics, d.PerLayer, false)

			data, err := os.ReadFile(filepath.Join(opt.outDir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace has no spans")
			}
			timed := 0
			for i, s := range tf.Spans {
				if s.ID != i+1 {
					t.Fatalf("span %d has ID %d", i+1, s.ID)
				}
				if s.StartNS < 0 || s.EndNS < s.StartNS {
					t.Errorf("span %d %s is not closed: [%d, %d]", s.ID, s.Name, s.StartNS, s.EndNS)
				}
				if s.Op > 0 {
					timed++
				}
				if s.Parent == 0 {
					continue
				}
				if s.Parent < 1 || s.Parent >= s.ID {
					t.Fatalf("span %d %s names parent %d", s.ID, s.Name, s.Parent)
				}
				p := tf.Spans[s.Parent-1]
				if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op {
					t.Errorf("span %d %s [%d, %d] op %d is not inside its parent %s [%d, %d] op %d",
						s.ID, s.Name, s.StartNS, s.EndNS, s.Op, p.Name, p.StartNS, p.EndNS, p.Op)
				}
			}
			if timed == 0 {
				t.Error("no span belongs to a timed op")
			}
		})
	}
}

func TestCorruptedDigestFailsTheOp(t *testing.T) {
	w, err := newScenario("fair-periodic", testSizes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(7, nil); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	w.step(nil, 1, &rec)
	if rec.failed != 0 || rec.jobs == 0 {
		t.Fatalf("clean op: failed %d, jobs %d: %v", rec.failed, rec.jobs, rec.errs)
	}
	w.(*simWorkload).ref.digest ^= 1
	w.step(nil, 2, &rec)
	if rec.failed != 1 {
		t.Errorf("op against a corrupted digest: failed_ops %d, want 1", rec.failed)
	}
}

func TestSeedChangesTheSchedule(t *testing.T) {
	digest := func(seed int64) uint64 {
		w, err := newScenario("batch-atscale", testSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(seed, nil); err != nil {
			t.Fatal(err)
		}
		return w.(*simWorkload).ref.digest
	}
	if a, b := digest(1), digest(1); a != b {
		t.Errorf("seed 1 gave digests %016x and %016x", a, b)
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %016x", a)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "fair-periodic", "-trace", "2"},
		{"-workload", "fair-periodic", "-seconds", "0"},
		{"-workload", "fair-periodic", "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v printed a result: %s", args, stdout.String())
		}
	}
}
