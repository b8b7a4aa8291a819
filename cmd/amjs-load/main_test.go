package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/server"
	"amjs/internal/workload"
)

// bootDaemon starts an in-process speedup=∞ daemon behind a loopback
// HTTP server.
func bootDaemon(t *testing.T, nodes int) (*server.Daemon, *httptest.Server) {
	t.Helper()
	d, err := server.New(server.Config{
		Machine:   machine.NewFlat(nodes),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewAPI(d))
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, srv
}

// synthSWF renders n monotone one-per-second SWF records.
func synthSWF(n int) string {
	var b strings.Builder
	b.WriteString("; synthetic load trace\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d %d -1 600 64 -1 -1 64 900 -1 1 %d -1 -1 -1 -1 -1 -1\n",
			i, i, i%17)
	}
	return b.String()
}

// Replaying 10k SWF jobs against a loopback daemon must sustain at
// least 5k submissions/sec and report a latency distribution — the
// single-request load path's acceptance bar.
func TestReplayThroughput(t *testing.T) {
	const jobs = 10000
	_, srv := bootDaemon(t, 512)
	src := workload.NewSWFSource(strings.NewReader(synthSWF(jobs)), workload.SWFOptions{Source: "synth"}, 0)

	cfg := loadConfig{addr: srv.URL, workers: 16, max: jobs}
	s, err := replay(newLoadClient(cfg.workers), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != jobs || s.Accepted != jobs || s.APIErrors != 0 || s.ConnErrors != 0 {
		t.Fatalf("replay: %d jobs, %d accepted, %d api / %d conn errors: %v",
			s.Jobs, s.Accepted, s.APIErrors, s.ConnErrors, s.FirstErrs)
	}
	t.Logf("throughput %.0f submissions/s, p50 %.2fms p99 %.2fms max %.2fms",
		s.PerSec, s.P50, s.P99, s.Max)
	if s.PerSec < 5000 {
		t.Errorf("sustained %.0f submissions/s, want >= 5000", s.PerSec)
	}
	if s.P99 <= 0 || s.P99 < s.P50 || s.Max < s.P99 {
		t.Errorf("implausible latency distribution: p50 %v p99 %v max %v", s.P50, s.P99, s.Max)
	}
}

// The batched wire mode must beat the single-request floor by a wide
// margin — this is the 5x ingest path of DESIGN.md §11.
func TestReplayBatchThroughput(t *testing.T) {
	const jobs = 40000
	d, srv := bootDaemon(t, 512)

	cfg := loadConfig{addr: srv.URL, workers: 4, max: jobs, batch: 256}
	s, err := replay(newLoadClient(cfg.workers), cfg, newGenSource(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != jobs || s.Accepted != jobs || s.APIErrors != 0 || s.ConnErrors != 0 {
		t.Fatalf("replay: %d jobs, %d accepted, %d api / %d conn errors: %v",
			s.Jobs, s.Accepted, s.APIErrors, s.ConnErrors, s.FirstErrs)
	}
	t.Logf("batched throughput %.0f submissions/s, p50 %.2fms p99 %.2fms", s.PerSec, s.P50, s.P99)
	if s.PerSec < 20000 {
		t.Errorf("sustained %.0f submissions/s batched, want >= 20000", s.PerSec)
	}
	if got := d.Stats().Accepted; got != jobs {
		t.Fatalf("daemon accepted %d, want %d", got, jobs)
	}
}

// Per-item rejections land in APIErrors without failing neighbours:
// an SWF trace mixing fitting jobs with impossible ones must admit the
// former and count the latter as API rejections.
func TestReplayBatchPartialRejections(t *testing.T) {
	d, srv := bootDaemon(t, 4)
	var b strings.Builder
	b.WriteString("; mixed\n")
	for i := 1; i <= 40; i++ {
		nodes := 2
		if i%4 == 0 {
			nodes = 99 // never fits flat:4
		}
		fmt.Fprintf(&b, "%d %d -1 600 %d -1 -1 %d 900 -1 1 %d -1 -1 -1 -1 -1 -1\n",
			i, i, nodes, nodes, i%3)
	}
	src := workload.NewSWFSource(strings.NewReader(b.String()), workload.SWFOptions{Source: "mixed"}, 0)
	cfg := loadConfig{addr: srv.URL, workers: 2, max: 40, batch: 8}
	s, err := replay(newLoadClient(cfg.workers), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Accepted != 30 || s.APIErrors != 10 || s.ConnErrors != 0 {
		t.Fatalf("accepted %d, api %d, conn %d; want 30/10/0 (%v)",
			s.Accepted, s.APIErrors, s.ConnErrors, s.FirstErrs)
	}
	if got := d.Stats().Accepted; got != 30 {
		t.Fatalf("daemon accepted %d, want 30", got)
	}
}

// Connection failures are reported apart from API rejections.
func TestReplayConnErrors(t *testing.T) {
	cfg := loadConfig{addr: "http://127.0.0.1:1", workers: 2, max: 8, batch: 4}
	s, err := replay(newLoadClient(cfg.workers), cfg, newGenSource(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.ConnErrors != 2 || s.APIErrors != 0 || s.Accepted != 0 {
		t.Fatalf("conn %d, api %d, accepted %d; want 2/0/0", s.ConnErrors, s.APIErrors, s.Accepted)
	}
}

// The full CLI path on the bundled sample trace: single worker with
// trace times forwarded, then drain via the run() report path.
func TestRunSampleTrace(t *testing.T) {
	d, srv := bootDaemon(t, 512)
	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL,
		"-trace", "sample",
		"-workers", "1",
		"-trace-times",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"10 ok, 0 rejected, 0 connection errors", "p99"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Job(10)
	if err != nil || st.State != "finished" {
		t.Fatalf("job 10 after drain: %+v, %v", st, err)
	}
	// Trace times forwarded: the sample's job 2 submits at t=60.
	st2, _ := d.Job(2)
	if st2.SubmitSec != 60 {
		t.Errorf("job 2 submit = %d, want 60 (trace time forwarded)", st2.SubmitSec)
	}
}

// A curve run sweeps offered rates and writes the BENCH-style artifact
// with the saturation curve embedded.
func TestRunCurveArtifact(t *testing.T) {
	_, srv := bootDaemon(t, 512)
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL,
		"-trace", "gen",
		"-batch", "64",
		"-curve", "2000,4000",
		"-step-dur", "300ms",
		"-json", path,
		"-min-rate", "1000",
		"-baseline-note", "test baseline",
		"-baseline-rate", "1000",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.IngestCurve) != 2 || len(a.Benchmarks) != 3 { // 2 steps + peak
		t.Fatalf("artifact: %d curve steps, %d benchmarks", len(a.IngestCurve), len(a.Benchmarks))
	}
	for i, want := range []float64{2000, 4000} {
		st := a.IngestCurve[i]
		if st.OfferedPerSec != want || st.AchievedPerSec <= 0 {
			t.Fatalf("step %d: %+v", i, st)
		}
		// Offered pacing: achieved must not wildly exceed offered.
		if st.AchievedPerSec > want*1.5 {
			t.Errorf("step %d achieved %.0f against offered %.0f — pacing broken",
				i, st.AchievedPerSec, want)
		}
	}
	if a.Baseline == nil || a.Baseline.Benchmarks[0].JobsPerSec != 1000 {
		t.Fatalf("baseline missing: %+v", a.Baseline)
	}
	if a.Benchmarks[len(a.Benchmarks)-1].Name != "IngestHTTP/peak" {
		t.Fatalf("peak benchmark missing: %+v", a.Benchmarks)
	}
}

// Flag validation: unsafe combinations are usage errors.
func TestRunRejectsUnsafeFlags(t *testing.T) {
	cases := [][]string{
		{"-trace-times", "-workers", "4"},
		{"-trace-times", "-batch", "8", "-workers", "1"},
		{"-workers", "0"},
		{"-trace", "gen:x"},
		{"-curve", "1000,nope"},
		{"-curve", "0", "-trace", "gen"}, // full-speed step needs -max
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v: want usage error", args)
		}
	}
}

// The -min-rate floor fails the run when unmet.
func TestRunMinRateFloor(t *testing.T) {
	_, srv := bootDaemon(t, 512)
	err := run([]string{
		"-addr", srv.URL,
		"-trace", "gen:100",
		"-batch", "10",
		"-min-rate", "99999999",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "below the -min-rate floor") {
		t.Fatalf("err = %v, want min-rate failure", err)
	}
}
