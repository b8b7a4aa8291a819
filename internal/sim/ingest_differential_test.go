// Differential leg for the daemon's sharded ingest lanes: batched
// admission through server.Daemon.SubmitBatch must reproduce sim.Run
// byte for byte at speedup=∞, for every batch size. This lives in an
// external test package because the server package sits above sim in
// the import graph.
package sim_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/server"
	"amjs/internal/sim"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// ingestTrace mirrors the in-package diffTrace generator: a contended
// workload scaled to a 512-node machine.
func ingestTrace(t *testing.T, seed int64, n int) []*job.Job {
	t.Helper()
	cfg := workload.Intrepid(seed)
	cfg.Name = "ingest-diff-512"
	cfg.MachineNodes = 512
	cfg.Sizes = []workload.SizeWeight{
		{Nodes: 32, Weight: 0.3}, {Nodes: 64, Weight: 0.3}, {Nodes: 128, Weight: 0.2},
		{Nodes: 256, Weight: 0.15}, {Nodes: 512, Weight: 0.05},
	}
	cfg.Arrival.MeanInterarrival = 5 * units.Minute
	cfg.Runtime.MedianSeconds = 1200
	cfg.Runtime.Max = 4 * units.Hour
	cfg.MaxJobs = n
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestIngestDifferential sweeps policies × scheduling modes × batch
// sizes and demands that admission through the ingest lanes yields the
// identical schedule to the batch engine: byte-identical event traces
// and matching per-job starts, ends, and final states, with the
// validity oracle armed on both sides.
func TestIngestDifferential(t *testing.T) {
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"easy", func() sched.Scheduler { return sched.NewEASY() }},
		{"metricaware", func() sched.Scheduler { return core.NewMetricAware(0.5, 3) }},
		{"tuner", func() sched.Scheduler {
			return core.NewTuner(core.PaperBFScheme(30), core.PaperWScheme())
		}},
		// The what-if policy additionally pins the planner's decision
		// log: daemon-side lookahead at speedup=∞ must reach the exact
		// decisions the batch engine reached.
		{"whatif", func() sched.Scheduler {
			return core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{
				Horizon: units.Hour,
				BFGrid:  []float64{0.5, 1},
				WGrid:   []int{1, 2},
				Workers: 1,
				LogCap:  1024,
			})))
		}},
	}
	modes := []struct {
		name   string
		period units.Duration
	}{
		{"event", 0},
		{"periodic", 10 * units.Second},
	}
	batchSizes := []int{1, 7, 64}

	seed := int64(100)
	for _, p := range policies {
		for _, md := range modes {
			for _, bs := range batchSizes {
				seed++
				s, bs := seed, bs
				name := fmt.Sprintf("%s/%s/batch%d", p.name, md.name, bs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					jobs := ingestTrace(t, s, 80)
					// Renumber a reference copy with the daemon's
					// monotonic IDs.
					ref := make([]*job.Job, len(jobs))
					for i, j := range jobs {
						c := j.Clone()
						c.ID = i + 1
						ref[i] = c
					}
					var batchTrace bytes.Buffer
					want, err := sim.Run(sim.Config{
						Machine:        machine.NewFlat(512),
						Scheduler:      p.mk(),
						SchedulePeriod: md.period,
						Paranoid:       true,
						Trace:          &batchTrace,
					}, ref)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}

					var laneTrace bytes.Buffer
					d, err := server.New(server.Config{
						Machine:        machine.NewFlat(512),
						Scheduler:      p.mk(),
						SchedulePeriod: md.period,
						Speedup:        math.Inf(1),
						Paranoid:       true,
						Trace:          &laneTrace,
						Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
					})
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					defer d.Close()

					for lo := 0; lo < len(jobs); lo += bs {
						hi := min(lo+bs, len(jobs))
						reqs := make([]server.SubmitRequest, 0, hi-lo)
						for _, j := range jobs[lo:hi] {
							submit := int64(j.Submit)
							reqs = append(reqs, server.SubmitRequest{
								User:        j.User,
								Nodes:       j.Nodes,
								WalltimeSec: int64(j.Walltime),
								RuntimeSec:  int64(j.Runtime),
								SubmitSec:   &submit,
							})
						}
						for i, r := range d.SubmitBatch(reqs) {
							if r.Err != nil {
								t.Fatalf("submit %d: %v", lo+i, r.Err)
							}
							if r.Status.ID != lo+i+1 {
								t.Fatalf("submit %d: assigned ID %d, want %d", lo+i, r.Status.ID, lo+i+1)
							}
						}
					}
					if _, err := d.Drain(); err != nil {
						t.Fatalf("Drain: %v", err)
					}

					for _, w := range want.Jobs {
						g, err := d.Job(w.ID)
						if err != nil {
							t.Fatalf("job %d: %v", w.ID, err)
						}
						if g.State != w.State.String() {
							t.Fatalf("job %d: lanes %s, batch %v", w.ID, g.State, w.State)
						}
						if w.State == job.Finished || w.State == job.Killed {
							if g.StartSec == nil || g.EndSec == nil ||
								*g.StartSec != int64(w.Start) || *g.EndSec != int64(w.End) {
								t.Fatalf("job %d: lanes %+v, batch [%d,%d]",
									w.ID, g, int64(w.Start), int64(w.End))
							}
						}
					}
					if !bytes.Equal(laneTrace.Bytes(), batchTrace.Bytes()) {
						t.Error("ingest-lane event trace differs from batch trace")
					}
					if want.WhatIf != nil {
						ts := d.Tuner()
						if ts.WhatIf == nil {
							t.Fatal("batch run has a what-if status, daemon /v1/tuner does not")
						}
						got, exp := ts.WhatIf, want.WhatIf
						if got.Ticks != exp.Ticks || got.Evaluated != exp.Evaluated ||
							got.Commits != exp.Commits || got.Skipped != exp.Skipped ||
							got.RolloutPasses != exp.RolloutPasses || got.RolloutsShared != exp.RolloutsShared {
							t.Errorf("daemon what-if counters ticks=%d eval=%d commits=%d skips=%d passes=%d shared=%d, batch ticks=%d eval=%d commits=%d skips=%d passes=%d shared=%d",
								got.Ticks, got.Evaluated, got.Commits, got.Skipped, got.RolloutPasses, got.RolloutsShared,
								exp.Ticks, exp.Evaluated, exp.Commits, exp.Skipped, exp.RolloutPasses, exp.RolloutsShared)
						}
						if len(got.Decisions) != len(exp.Decisions) {
							t.Fatalf("daemon logged %d decisions, batch %d",
								len(got.Decisions), len(exp.Decisions))
						}
						for i, w := range exp.Decisions {
							g := got.Decisions[i]
							g.WallNS, w.WallNS = 0, 0 // machine timing differs
							if g != w {
								t.Errorf("decision %d: daemon %+v, batch %+v", i, g, w)
							}
						}
					}
				})
			}
		}
	}
}
