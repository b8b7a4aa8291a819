package sim

import (
	"fmt"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
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
// Each profile runs in event and periodic mode — event mode is where
// batches ride the main schedule across phantom instants and the
// deferral frontier is walked hardest. Both must agree exactly with the
// naive clone-everything oracle, and the expected per-job divergence is
// asserted so the workloads keep exercising the paths they were built
// for.
func TestFairOracleDivergenceProfiles(t *testing.T) {
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
