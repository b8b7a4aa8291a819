package sim

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// unfairQuartet is the canonical EASY-unfairness scenario shifted to
// base: A and B fill the machine, C is blocked behind B's reservation,
// and D backfills but outlives the shadow, pushing C past its fair
// start. Only C (id0+2) ends up with fair start != actual start.
func unfairQuartet(base units.Time, id0 int) []*job.Job {
	return []*job.Job{
		schedtest.J(id0, base, 6, 100, 100),
		schedtest.J(id0+1, base+1, 7, 100, 100),
		schedtest.J(id0+2, base+2, 8, 300, 300),
		schedtest.J(id0+3, base+3, 3, 300, 300),
	}
}

// flightTrace replays jobs through a Live session's engine one step at a
// time and reports, in ID order, the jobs whose fair world was still in
// flight (their fairStarts entry pending) when they started in the main
// engine — the starts that take beginEffects' join path — and the most
// worlds ever in flight at a step boundary.
func flightTrace(t *testing.T, cfg Config, jobs []*job.Job) (startedInFlight []int, maxFlight int) {
	t.Helper()
	l, err := NewLive(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := l.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e := l.e
	e.keepGrids = false // wind the grids down as Drain does
	for {
		var pending []*job.Job
		for _, j := range e.queue.jobs() {
			if e.fairStarts[j.ID] == fairPending {
				pending = append(pending, j)
			}
		}
		ok, err := e.step()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range pending {
			if j.State != job.Queued {
				startedInFlight = append(startedInFlight, j.ID)
			}
		}
		maxFlight = max(maxFlight, len(e.fair.flight))
		if !ok {
			break
		}
	}
	e.fair.joinAll()
	slices.Sort(startedInFlight)
	return startedInFlight, maxFlight
}

// TestFairOracleDivergenceProfiles pins the batched fairness oracle on
// workload shapes chosen by when the fair (no-later-arrival) world
// diverges from the main schedule: never (the machine drains between
// arrivals, so every batch resolves on the free path), early (the very
// first arrivals contend and a backfill causes unfairness), and late (a
// long quiescent prefix before the contended burst, so the oracle's
// elision machinery must stay correct across the quiet stretch). A
// fourth profile drives the same contended quartet through the
// metric-aware window policy, whose pass horizons and protected
// reservation exercise the replay-echo recheck rather than EASY's.
//
// Two more profiles overlap two contended quartets, so that diverged
// fair worlds pile up in flight to the cap while the main schedule
// advances, and targets start in the main engine before their worlds
// are joined — the join path of beginEffects.
//
// Each profile runs in event and periodic mode — event mode is where
// batches ride the main schedule across phantom instants and the
// deferral frontier is walked hardest. Both must agree exactly with the
// naive clone-everything oracle, and the expected per-job divergence
// and the starts taking the join path are asserted so the workloads keep
// exercising the paths they were built for. GOMAXPROCS is pinned to 1,
// which fixes the in-flight cap at 2 (joins happen where they happen at
// any setting; only the cap moves them).
func TestFairOracleDivergenceProfiles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sparse := func(id int, at units.Time) *job.Job {
		return schedtest.J(id, at, 6, 50, 50)
	}
	profiles := []struct {
		name string
		mk   func() sched.Scheduler
		jobs []*job.Job
		// diverges maps job ID to whether its oracle fair start must
		// differ from its actual start.
		diverges map[int]bool
		// inFlight lists the jobs whose fair world is still in flight
		// at a step boundary when they start in the main engine, and
		// maxFlight the most worlds in flight at a step boundary.
		inFlight  []int
		maxFlight int
	}{
		{
			name:     "never",
			mk:       func() sched.Scheduler { return sched.NewEASY() },
			jobs:     []*job.Job{sparse(1, 0), sparse(2, 100), sparse(3, 200), sparse(4, 300)},
			diverges: map[int]bool{1: false, 2: false, 3: false, 4: false},
		},
		{
			name:     "early",
			mk:       func() sched.Scheduler { return sched.NewEASY() },
			jobs:     append(unfairQuartet(0, 1), sparse(5, 1000), sparse(6, 1100)),
			diverges: map[int]bool{1: false, 3: true, 5: false, 6: false},
		},
		{
			name:     "late",
			mk:       func() sched.Scheduler { return sched.NewEASY() },
			jobs:     append([]*job.Job{sparse(1, 0), sparse(2, 100)}, unfairQuartet(1000, 3)...),
			diverges: map[int]bool{1: false, 2: false, 5: true, 6: false},
			inFlight: []int{4, 5}, maxFlight: 2,
		},
		{
			name: "metricaware",
			mk:   func() sched.Scheduler { return core.NewMetricAware(0.5, 3) },
			// A drain job, then an old small-long job the young wide-short
			// job 3 queue-jumps on release (shortness scores high at
			// BF=0.5 and the window packs the 9-node block first): job 2's
			// no-later-arrival world starts it at the drain instead.
			jobs: []*job.Job{
				schedtest.J(1, 0, 10, 100, 100),
				schedtest.J(2, 1, 2, 300, 300),
				schedtest.J(3, 2, 9, 50, 50),
				sparse(4, 1000), sparse(5, 1100),
			},
			diverges: map[int]bool{1: false, 2: true, 3: false, 4: false, 5: false},
		},
		{
			name:     "overlap",
			mk:       func() sched.Scheduler { return sched.NewEASY() },
			jobs:     append(unfairQuartet(0, 1), unfairQuartet(50, 5)...),
			diverges: map[int]bool{1: false, 2: false, 3: true, 4: false, 7: false},
			inFlight: []int{2, 3}, maxFlight: 2,
		},
		{
			name:     "overlap-metricaware",
			mk:       func() sched.Scheduler { return core.NewMetricAware(0.5, 3) },
			jobs:     append(unfairQuartet(0, 1), unfairQuartet(50, 5)...),
			diverges: map[int]bool{2: false, 3: true, 5: true, 7: false},
			inFlight: []int{2, 5}, maxFlight: 2,
		},
	}
	for _, p := range profiles {
		for _, period := range []units.Duration{0, 10 * units.Second} {
			mode := "event"
			if period > 0 {
				mode = fmt.Sprintf("periodic-%ds", period)
			}
			// "deferred" names the oracle under test (there is one; the
			// suffix keeps the sub-test IDs stable).
			t.Run(p.name+"/"+mode+"/deferred", func(t *testing.T) {
				cfg := Config{
					Machine:        machine.NewFlat(10),
					Scheduler:      p.mk(),
					SchedulePeriod: period,
					Fairness:       true,
					Paranoid:       true,
				}
				res, err := Run(cfg, p.jobs)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				naiveCfg := cfg
				naiveCfg.naiveOracle = true
				naiveCfg.Scheduler = p.mk()
				naive, err := Run(naiveCfg, p.jobs)
				if err != nil {
					t.Fatalf("Run(naive oracle): %v", err)
				}
				if scheduleHash(naive) != scheduleHash(res) {
					t.Error("naive-oracle schedule differs from batched-oracle schedule")
				}
				if len(naive.FairStarts) != len(res.FairStarts) {
					t.Fatalf("naive oracle knows %d fair starts, batched %d",
						len(naive.FairStarts), len(res.FairStarts))
				}
				for id, w := range res.FairStarts {
					if g, ok := naive.FairStarts[id]; !ok || g != w {
						t.Errorf("job %d: naive fair start %v, batched %v", id, g, w)
					}
				}

				inFlight, maxFlight := flightTrace(t, cfg, p.jobs)
				if !slices.Equal(inFlight, p.inFlight) || maxFlight != p.maxFlight {
					t.Errorf("jobs %v started with their world in flight, at most %d in flight; want %v and %d",
						inFlight, maxFlight, p.inFlight, p.maxFlight)
				}

				byID := job.ByID(res.Jobs)
				for id, wantDiverge := range p.diverges {
					fair, ok := res.FairStarts[id]
					if !ok {
						t.Errorf("job %d has no fair start", id)
						continue
					}
					j, ok := byID[id]
					if !ok {
						t.Fatalf("job %d missing from result", id)
					}
					if got := fair != j.Start; got != wantDiverge {
						t.Errorf("job %d: fair start %v vs actual %v (diverges=%v), want diverges=%v",
							id, fair, j.Start, got, wantDiverge)
					}
				}
			})
		}
	}
}

// TestFairWorldsIndependentOfParallelism runs one fairness-on trace with
// the fair worlds on one processor, on four, and on two shared with
// eight other fairness runs, in both cadences under Paranoid: the
// in-flight cap (2, 8, then 1) and the goroutines' interleaving change,
// the fair starts, the unfair and fair-known counts and the schedule
// must not.
func TestFairWorldsIndependentOfParallelism(t *testing.T) {
	jobs := diffTrace(t, 11, 40)
	legs := []struct{ procs, others int }{{1, 0}, {4, 0}, {2, 8}}
	for _, period := range []units.Duration{0, 10 * units.Second} {
		t.Run(fmt.Sprintf("period-%ds", period), func(t *testing.T) {
			var want *Result
			for _, leg := range legs {
				prev := runtime.GOMAXPROCS(leg.procs)
				fairRuns.Add(int32(leg.others))
				res, err := Run(Config{
					Machine:        machine.NewPartition(8, 64),
					Scheduler:      core.NewMetricAware(0.5, 3),
					SchedulePeriod: period,
					Fairness:       true,
					Paranoid:       true,
				}, jobs)
				fairRuns.Add(-int32(leg.others))
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%+v: %v", leg, err)
				}
				if want == nil {
					if res.Metrics.UnfairCount() == 0 {
						t.Fatal("no job was treated unfairly; the trace forks no fair world worth comparing")
					}
					want = res
					continue
				}
				if !maps.Equal(res.FairStarts, want.FairStarts) {
					t.Errorf("%+v: fair starts differ from %+v", leg, legs[0])
				}
				if g, w := res.Metrics, want.Metrics; g.UnfairCount() != w.UnfairCount() || g.FairKnownCount() != w.FairKnownCount() {
					t.Errorf("%+v: unfair/fair-known %d/%d, %+v %d/%d",
						leg, g.UnfairCount(), g.FairKnownCount(), legs[0], w.UnfairCount(), w.FairKnownCount())
				}
				if scheduleHash(res) != scheduleHash(want) {
					t.Errorf("%+v: schedule differs from %+v", leg, legs[0])
				}
			}
		})
	}
}

// TestFairWorldCapSplitsAcrossRuns pins the in-flight cap's budget: two
// worlds per processor for a lone run, split between the fairness runs
// stepping at once, and never below one world per run.
func TestFairWorldCapSplitsAcrossRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer fairRuns.Store(fairRuns.Load())
	for _, c := range []struct{ runs, want int }{{0, 4}, {1, 4}, {2, 2}, {3, 1}, {8, 1}} {
		fairRuns.Store(int32(c.runs))
		if got := maxInFlight(); got != c.want {
			t.Errorf("%d runs on 2 processors: cap %d, want %d", c.runs, got, c.want)
		}
	}
}

// TestFairWorldsJoinedBeforeReturn pins that Run, RunStream and
// Live.Drain return with no fair world in flight: every fair start is
// final, and every world's goroutine exits. A world whose
// targets start is joined at the start, so the Live leg also cancels a
// waiting job: its batch's world forks at the cancellation and, with no
// start left to join it, only Drain does.
func TestFairWorldsJoinedBeforeReturn(t *testing.T) {
	jobs := diffTrace(t, 12, 40)
	cfg := Config{Machine: machine.NewFlat(512), Scheduler: sched.NewEASY(), Fairness: true}
	tail := jobs[len(jobs)-1].Submit.Add(10 * units.Day)
	blocker, cancelled := schedtest.J(1001, tail, 512, 1000, 1000), schedtest.J(1002, tail+1, 8, 50, 50)
	for _, c := range []struct {
		name string
		n    int // jobs with a fair start
		call func() (map[int]units.Time, error)
	}{
		{"Run", len(jobs), func() (map[int]units.Time, error) {
			res, err := Run(cfg, jobs)
			if err != nil {
				return nil, err
			}
			return res.FairStarts, nil
		}},
		{"RunStream", len(jobs), func() (map[int]units.Time, error) {
			res, err := RunStream(cfg, workload.SliceSource(jobs), nil)
			if err != nil {
				return nil, err
			}
			return res.FairStarts, nil
		}},
		{"Live.Drain", len(jobs) + 2, func() (map[int]units.Time, error) {
			l, err := NewLive(cfg, false)
			if err != nil {
				return nil, err
			}
			for _, j := range append(slices.Clone(jobs), blocker, cancelled) {
				if _, err := l.Submit(j); err != nil {
					return nil, err
				}
			}
			if err := l.AdvanceTo(cancelled.Submit); err != nil {
				return nil, err
			}
			if !l.Cancel(cancelled.ID) || l.e.fairStarts[cancelled.ID] != fairPending {
				t.Fatal("the cancellation forked no fair world")
			}
			err = l.Drain()
			if len(l.e.fair.flight) > 0 {
				t.Errorf("%d fair worlds still in flight", len(l.e.fair.flight))
			}
			return l.e.fairStarts, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			fair, err := c.call()
			if err != nil {
				t.Fatal(err)
			}
			if len(fair) != c.n {
				t.Errorf("%d fair starts, want %d", len(fair), c.n)
			}
			for id, f := range fair {
				if f == fairPending {
					t.Errorf("job %d's fair start is still pending", id)
				}
			}
			// A joined world's goroutine has sent its outcome and is
			// returning; wait for it to finish exiting. One that never
			// exits is stuck, which is what this catches.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the call, %d after", before, after)
			}
		})
	}
}
