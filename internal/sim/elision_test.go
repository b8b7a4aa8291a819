package sim

import (
	"fmt"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// elisionScheds are the policies the elision and oracle equivalence
// suites sweep: the paper's scheduler (also in conservative mode, whose
// reservations follow a clock-dependent order), its adaptive tuner, and
// the baselines with the most scheduling-pass-sensitive state (EASY's
// persistent reservation, conservative's full reservation set, dynP's
// per-pass policy election).
var elisionScheds = []struct {
	name string
	mk   func() sched.Scheduler
}{
	{"easy", func() sched.Scheduler { return sched.NewEASY() }},
	{"conservative", func() sched.Scheduler { return sched.NewConservative() }},
	{"dynp", func() sched.Scheduler { return sched.NewDynP() }},
	{"metric-aware", func() sched.Scheduler { return core.NewMetricAware(0.5, 4) }},
	{"metric-aware-conservative", func() sched.Scheduler {
		s := core.NewMetricAware(0.5, 2)
		s.Conservative = true
		return s
	}},
	{"tuner", func() sched.Scheduler { return core.NewTuner(core.PaperBFScheme(100), core.PaperWScheme()) }},
}

// elisionPeriods cover pure event-driven scheduling and two periodic
// cadences (the production ~10 s tick and a coarse one that makes
// arrivals land between ticks).
var elisionPeriods = []units.Duration{0, 10 * units.Second, 3 * units.Minute}

func elisionTrace(t *testing.T, seed int64) []*job.Job {
	t.Helper()
	cfg := workload.Mini(seed)
	cfg.MaxJobs = 60
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// identicalSchedules fails unless both results agree bit-for-bit on
// every job's start, end, and state, on the fair starts, and on the
// unfairness verdicts.
func identicalSchedules(t *testing.T, label string, a, b *Result) {
	t.Helper()
	aj, bj := job.ByID(a.Jobs), job.ByID(b.Jobs)
	if len(aj) != len(bj) {
		t.Errorf("%s: job counts differ: %d vs %d", label, len(aj), len(bj))
		return
	}
	for id, x := range aj {
		y := bj[id]
		if y == nil {
			t.Errorf("%s: job %d missing from second run", label, id)
			continue
		}
		if x.Start != y.Start || x.End != y.End || x.State != y.State {
			t.Errorf("%s: job %d differs: (%v,%v,%v) vs (%v,%v,%v)",
				label, id, x.Start, x.End, x.State, y.Start, y.End, y.State)
		}
	}
	if len(a.FairStarts) != len(b.FairStarts) {
		t.Errorf("%s: fair-start counts differ: %d vs %d", label, len(a.FairStarts), len(b.FairStarts))
	}
	for id, fa := range a.FairStarts {
		if fb, ok := b.FairStarts[id]; !ok || fa != fb {
			t.Errorf("%s: fair start of job %d differs: %v vs %v", label, id, fa, fb)
		}
	}
	if a.Metrics.UnfairCount() != b.Metrics.UnfairCount() {
		t.Errorf("%s: unfair counts differ: %d vs %d",
			label, a.Metrics.UnfairCount(), b.Metrics.UnfairCount())
	}
}

// TestElisionPreservesSchedules is the paranoid equivalence property:
// across randomized workloads, schedulers, scheduling cadences, and
// fairness settings, the engine with no-op pass elision (and the nested
// oracle's tick fast-forward) produces the bit-identical schedule of
// the engine that runs every due pass. Paranoid mode keeps the
// structural invariants checked after every step of both runs.
func TestElisionPreservesSchedules(t *testing.T) {
	// On seed 7 a conservative metric-aware pass that started nothing
	// is followed, on unchanged state, by one that starts a job the
	// clock moved ahead of its blocker: it must not be elided.
	for _, seed := range []int64{1, 2, 7} {
		jobs := elisionTrace(t, seed)
		for _, sc := range elisionScheds {
			for _, period := range elisionPeriods {
				for _, fair := range []bool{false, true} {
					label := fmt.Sprintf("seed=%d/%s/period=%v/fair=%v", seed, sc.name, period, fair)
					cfg := Config{
						Machine:        machine.NewPartition(8, 64),
						Scheduler:      sc.mk(),
						SchedulePeriod: period,
						Fairness:       fair,
						Paranoid:       true,
					}
					elided := run(t, cfg, jobs)
					cfg.disableElision = true
					full := run(t, cfg, jobs)
					identicalSchedules(t, label, elided, full)
				}
			}
		}
	}
}

// TestOracleMatchesNaiveReference proves the pruned fairness oracle —
// batched same-instant targets, one reused sub-engine, arena-cloned
// jobs, early stop, nested pass elision with tick fast-forward — yields
// fair starts bit-identical to the reference oracle, which clones
// everything from scratch for every single target and elides nothing.
func TestOracleMatchesNaiveReference(t *testing.T) {
	for _, seed := range []int64{3, 4, 7} {
		jobs := elisionTrace(t, seed)
		for _, sc := range elisionScheds {
			for _, period := range elisionPeriods {
				label := fmt.Sprintf("seed=%d/%s/period=%v", seed, sc.name, period)
				cfg := Config{
					Machine:        machine.NewPartition(8, 64),
					Scheduler:      sc.mk(),
					SchedulePeriod: period,
					Fairness:       true,
					Paranoid:       true,
				}
				pruned := run(t, cfg, jobs)
				cfg.naiveOracle = true
				naive := run(t, cfg, jobs)
				if len(pruned.FairStarts) == 0 {
					t.Fatalf("%s: no fair starts recorded", label)
				}
				identicalSchedules(t, label, pruned, naive)
			}
		}
	}
}
