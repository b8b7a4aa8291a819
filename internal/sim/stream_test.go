package sim

import (
	"runtime"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// streamTestTrace builds a moderately contended synthetic trace.
func streamTestTrace(t *testing.T, seed int64, n int) []*job.Job {
	t.Helper()
	cfg := workload.Intrepid(seed)
	cfg.MaxJobs = n
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// RunStream over a slice source with no sink must reproduce Run
// byte-for-byte: same schedule, same metrics, same rejections.
func TestRunStreamMatchesRun(t *testing.T) {
	jobs := streamTestTrace(t, 23, 400)
	configs := map[string]Config{
		"event": {
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewMetricAware(0.5, 5),
			Fairness:  true,
			Paranoid:  true,
		},
		"periodic": {
			Machine:        machine.NewIntrepid(),
			Scheduler:      core.NewMetricAware(0.5, 5),
			SchedulePeriod: 10 * units.Second,
			Paranoid:       true,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			want, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunStream(cfg, workload.SliceSource(jobs), nil)
			if err != nil {
				t.Fatal(err)
			}
			if scheduleHash(got) != scheduleHash(want) {
				t.Fatal("streamed schedule differs from batch schedule")
			}
			if got.Makespan != want.Makespan {
				t.Errorf("Makespan = %v, want %v", got.Makespan, want.Makespan)
			}
			if got.AcceptedCount != want.AcceptedCount || got.RejectedCount != want.RejectedCount {
				t.Errorf("census = %d/%d, want %d/%d",
					got.AcceptedCount, got.RejectedCount, want.AcceptedCount, want.RejectedCount)
			}
			if g, w := got.Metrics, want.Metrics; g.UtilAvg() != w.UtilAvg() ||
				g.AvgWaitMinutes() != w.AvgWaitMinutes() || g.LoC() != w.LoC() ||
				g.UnfairCount() != w.UnfairCount() || g.QD.Len() != w.QD.Len() {
				t.Error("streamed metrics differ from batch metrics")
			}
			for id, fs := range want.FairStarts {
				if got.FairStarts[id] != fs {
					t.Errorf("fair start of job %d = %v, want %v", id, got.FairStarts[id], fs)
				}
			}
		})
	}
}

// Sink mode must deliver every accepted job, completed, in the same
// schedule, with the lean aggregates agreeing with the batch run's.
func TestRunStreamSink(t *testing.T) {
	jobs := streamTestTrace(t, 29, 400)
	cfg := Config{
		Machine:   machine.NewIntrepid(),
		Scheduler: core.NewMetricAware(0.5, 5),
	}
	want, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	byID := make(map[int]*job.Job)
	res, err := RunStream(cfg, workload.SliceSource(jobs), func(j *job.Job) {
		if _, dup := byID[j.ID]; dup {
			t.Fatalf("job %d delivered twice", j.ID)
		}
		if j.State != job.Finished && j.State != job.Killed {
			t.Fatalf("job %d delivered in state %v", j.ID, j.State)
		}
		byID[j.ID] = j
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != nil || res.Rejected != nil {
		t.Error("sink mode must not retain job slices")
	}
	if len(byID) != want.AcceptedCount {
		t.Fatalf("sink received %d jobs, want %d", len(byID), want.AcceptedCount)
	}
	if res.AcceptedCount != want.AcceptedCount || res.RejectedCount != want.RejectedCount {
		t.Errorf("census = %d/%d, want %d/%d",
			res.AcceptedCount, res.RejectedCount, want.AcceptedCount, want.RejectedCount)
	}
	for _, w := range want.Jobs {
		g := byID[w.ID]
		if g == nil || g.Start != w.Start || g.End != w.End || g.State != w.State {
			t.Fatalf("job %d schedule differs: got %+v, want %+v", w.ID, g, w)
		}
	}
	if res.Makespan != want.Makespan {
		t.Errorf("Makespan = %v, want %v", res.Makespan, want.Makespan)
	}

	// The per-job aggregates fold the same way in both modes and match
	// exactly; only the lean utilization integrals round differently.
	g, w := res.Metrics, want.Metrics
	if g.StartedCount() != w.StartedCount() {
		t.Errorf("StartedCount = %d, want %d", g.StartedCount(), w.StartedCount())
	}
	if g.AvgWaitMinutes() != w.AvgWaitMinutes() {
		t.Errorf("AvgWaitMinutes = %g, want %g", g.AvgWaitMinutes(), w.AvgWaitMinutes())
	}
	if g.MaxWaitMinutes() != w.MaxWaitMinutes() {
		t.Errorf("MaxWaitMinutes = %g, want %g", g.MaxWaitMinutes(), w.MaxWaitMinutes())
	}
	if !close(g.UtilAvg(), w.UtilAvg()) {
		t.Errorf("UtilAvg = %g, want %g", g.UtilAvg(), w.UtilAvg())
	}
	if !close(g.UsedAvg(), w.UsedAvg()) {
		t.Errorf("UsedAvg = %g, want %g", g.UsedAvg(), w.UsedAvg())
	}
	if g.AvgBSLD() != w.AvgBSLD() || g.MaxBSLD() != w.MaxBSLD() {
		t.Errorf("BSLD mean/max = %g/%g, want %g/%g", g.AvgBSLD(), g.MaxBSLD(), w.AvgBSLD(), w.MaxBSLD())
	}
	// Checkpoint series grow with simulated time; lean runs keep none.
	if g.QD.Len() != 0 || g.Util24H.Len() != 0 {
		t.Errorf("lean run retained %d+%d checkpoint samples, want 0", g.QD.Len(), g.Util24H.Len())
	}
}

// close tolerates float accumulation-order differences between the
// incremental lean integrals and the batch integration.
func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > scale {
		scale = b
	}
	return d <= 1e-9*scale
}

// A rejected job never reaches the sink but is counted.
func TestRunStreamSinkRejects(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, Submit: 0, Nodes: 64, Walltime: units.Hour, Runtime: 30 * units.Minute},
		{ID: 2, Submit: 10, Nodes: 1 << 20, Walltime: units.Hour, Runtime: units.Hour}, // never fits
		{ID: 3, Submit: 20, Nodes: 128, Walltime: units.Hour, Runtime: 45 * units.Minute},
	}
	delivered := 0
	res, err := RunStream(Config{
		Machine:   machine.NewFlat(1024),
		Scheduler: core.NewMetricAware(0.5, 5),
	}, workload.SliceSource(jobs), func(j *job.Job) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || res.AcceptedCount != 2 || res.RejectedCount != 1 {
		t.Fatalf("delivered=%d accepted=%d rejected=%d, want 2/2/1",
			delivered, res.AcceptedCount, res.RejectedCount)
	}
}

// An out-of-order source is an input error, not a silent reorder.
func TestRunStreamOrderEnforced(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, Submit: 100, Nodes: 64, Walltime: units.Hour, Runtime: units.Hour},
		{ID: 2, Submit: 0, Nodes: 64, Walltime: units.Hour, Runtime: units.Hour},
	}
	_, err := RunStream(Config{
		Machine:   machine.NewFlat(1024),
		Scheduler: core.NewMetricAware(0.5, 5),
	}, workload.SliceSource(jobs), nil)
	if err == nil {
		t.Fatal("want error for an out-of-order source, got nil")
	}
}

// peakHeap replays n synthetic jobs through a sink-driven stream and
// returns the peak live heap observed at completion boundaries.
func peakHeap(t *testing.T, n int) uint64 {
	t.Helper()
	cfg := workload.Intrepid(41)
	cfg.MaxJobs = n
	cfg.Horizon = 10 * 365 * units.Day // cap decides the length, not the horizon
	src, err := cfg.Stream()
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	var ms runtime.MemStats
	done := 0
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	sample()
	res, err := RunStream(Config{
		Machine:   machine.NewIntrepid(),
		Scheduler: core.NewMetricAware(0.5, 5),
	}, src, func(j *job.Job) {
		done++
		if done%4096 == 0 {
			sample()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sample()
	if res.AcceptedCount != n {
		t.Fatalf("accepted %d of %d streamed jobs", res.AcceptedCount, n)
	}
	return peak
}

// The streaming acceptance bar: peak heap must stay flat (within 2x)
// when the trace grows 10x, because the engine only ever holds the
// live window. Run with -short to skip (the large replay takes a few
// minutes of simulated scheduling).
func TestStreamHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming heap profile is a long test")
	}
	small, large := 50_000, 500_000
	peakSmall := peakHeap(t, small)
	peakLarge := peakHeap(t, large)
	t.Logf("peak heap: %d jobs -> %.1f MiB, %d jobs -> %.1f MiB",
		small, float64(peakSmall)/(1<<20), large, float64(peakLarge)/(1<<20))
	// Absolute slack absorbs GC jitter on tiny heaps.
	if slack := uint64(8 << 20); peakLarge > 2*peakSmall+slack {
		t.Fatalf("peak heap grew superlinearly: %d B at %d jobs vs %d B at %d jobs",
			peakLarge, large, peakSmall, small)
	}
}

// A sink-driven stream recycles a completed job's row: over a trace
// much longer than the jobs it holds in flight, its job table stays at
// the peak in flight, rounded up to a chunk, and the schedule is still
// Run's. Paranoid runs audit every step for a recycled row that a
// holder still names (checkSlots): the queue, the running set, the
// arrival FIFO or, in the fairness leg, a deferred batch.
func TestRunStreamRecyclesRows(t *testing.T) {
	const n = 3000
	jobs := streamTestTrace(t, 37, n)
	legs := map[string]Config{
		"event-fairness": {
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewMetricAware(0.5, 3),
			Fairness:  true,
			Paranoid:  true,
		},
		"periodic": {
			Machine:        machine.NewIntrepid(),
			Scheduler:      core.NewMetricAware(0.5, 3),
			SchedulePeriod: 10 * units.Second,
			Paranoid:       true,
		},
	}
	for name, cfg := range legs {
		t.Run(name, func(t *testing.T) {
			want, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			byID := map[int]*job.Job{}
			var e *engine
			peak := 0
			e, err = newStreamEngine(cfg, workload.SliceSource(jobs), func(j *job.Job) {
				// Admitted and not yet delivered, this job included.
				peak = max(peak, e.in.accepted-len(byID))
				byID[j.ID] = j
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.run(nil); err != nil {
				t.Fatal(err)
			}
			res, err := e.result(nil)
			if err != nil {
				t.Fatal(err)
			}

			t.Logf("%d accepted, peak in flight %d, table rows %d of %d", res.AcceptedCount, peak, e.table.Len(), e.table.Cap())
			if rows := e.table.Len(); rows > peak || e.table.Cap() > peak+job.ChunkRows {
				t.Errorf("table handed out %d rows and holds %d, want at most the peak in flight %d and %d",
					rows, e.table.Cap(), peak, peak+job.ChunkRows)
			}
			if 4*peak > n {
				t.Errorf("peak in flight %d of %d jobs: the trace is too short to recycle rows", peak, n)
			}
			if res.AcceptedCount != want.AcceptedCount || res.RejectedCount != want.RejectedCount {
				t.Errorf("census %d/%d, want %d/%d",
					res.AcceptedCount, res.RejectedCount, want.AcceptedCount, want.RejectedCount)
			}
			got := &Result{}
			for _, w := range want.Jobs {
				if g := byID[w.ID]; g != nil {
					got.Jobs = append(got.Jobs, g)
				}
			}
			if len(got.Jobs) != len(want.Jobs) || scheduleHash(got) != scheduleHash(want) {
				t.Error("recycled-row stream scheduled differently from Run")
			}
		})
	}
}
