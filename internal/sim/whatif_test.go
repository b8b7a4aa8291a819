package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// testPlanner is the suite's standard what-if configuration: a small
// grid and a short horizon keep the rollout cost test-sized, zero
// budget keeps every decision deterministic, and a large log cap keeps
// the full decision history for cross-engine comparison.
func testPlanner(cfg whatif.Config) *whatif.Planner {
	if cfg.Horizon == 0 {
		cfg.Horizon = units.Hour
	}
	if cfg.BFGrid == nil {
		cfg.BFGrid = []float64{0.5, 1}
	}
	if cfg.WGrid == nil {
		cfg.WGrid = []int{1, 2}
	}
	if cfg.LogCap == 0 {
		cfg.LogCap = 1024
	}
	cfg.Workers = 1
	return whatif.NewPlanner(cfg)
}

// TestWhatIfCommitsDecisions runs the pure what-if tuner over a
// contended trace and demands the planner actually steered: rollouts
// ran, decisions were logged, and at least one was committed. Paranoid
// arms the full validity oracle over the whole run.
func TestWhatIfCommitsDecisions(t *testing.T) {
	jobs := diffTrace(t, 7, 120)
	res, err := Run(Config{
		Machine:   machine.NewFlat(512),
		Scheduler: core.NewTuner(core.WhatIf(testPlanner(whatif.Config{}))),
		Paranoid:  true,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := res.WhatIf
	if st == nil {
		t.Fatal("Result.WhatIf is nil for a what-if policy")
	}
	if st.Ticks == 0 || st.Evaluated == 0 {
		t.Fatalf("planner never ran: %d ticks, %d candidates evaluated", st.Ticks, st.Evaluated)
	}
	if len(st.Decisions) == 0 {
		t.Fatal("no decisions logged")
	}
	if st.Commits == 0 {
		t.Fatalf("no committed decisions across %d ticks on a contended trace", st.Ticks)
	}
	committed := 0
	for _, d := range st.Decisions {
		if d.Committed {
			committed++
			if d.BF == d.PrevBF && d.W == d.PrevW {
				t.Errorf("committed decision at t=%v changes nothing: (%g,%d)", d.At, d.BF, d.W)
			}
		}
	}
	if uint64(committed) != st.Commits {
		t.Errorf("commit counter %d, but %d committed decisions in the log", st.Commits, committed)
	}
	if res.Policy != "adaptive(whatif)" {
		t.Errorf("policy name %q", res.Policy)
	}
}

// TestWhatIfShadowNoLeak is the fork-isolation pin: a shadow (observe
// mode) what-if planner riding next to each of the paper's two
// threshold schemes must leave the schedule byte-identical to the
// threshold scheme alone — across machines, engine cadences, and the
// fairness oracle, Paranoid-armed throughout. The planner provably ran
// (ticks and evaluations accrue), so any leak from a rollout fork into
// the main engine would surface as a trace diff.
func TestWhatIfShadowNoLeak(t *testing.T) {
	schemes := []struct {
		name string
		mk   func() core.Scheme
	}{
		{"bf", func() core.Scheme { return core.PaperBFScheme(30) }},
		{"w", func() core.Scheme { return core.PaperWScheme() }},
	}
	grids := []struct {
		name   string
		mk     func() machine.Machine
		period units.Duration
		fair   bool
		jobs   int
	}{
		{"flat/event", func() machine.Machine { return machine.NewFlat(512) }, 0, false, 80},
		{"flat/periodic", func() machine.Machine { return machine.NewFlat(512) }, 10 * units.Second, false, 80},
		{"flat/fair", func() machine.Machine { return machine.NewFlat(512) }, 0, true, 36},
		{"partition/event", func() machine.Machine { return machine.NewPartition(8, 64) }, 0, false, 80},
		{"partition/fairp", func() machine.Machine { return machine.NewPartition(8, 64) }, 10 * units.Second, true, 30},
	}
	seed := int64(100)
	for _, sc := range schemes {
		for _, g := range grids {
			seed++
			s := seed
			t.Run(fmt.Sprintf("%s/%s", sc.name, g.name), func(t *testing.T) {
				t.Parallel()
				jobs := diffTrace(t, s, g.jobs)
				base := Config{
					Machine:        g.mk(),
					Scheduler:      core.NewTuner(sc.mk()),
					SchedulePeriod: g.period,
					Fairness:       g.fair,
					Paranoid:       true,
				}
				var refTrace, shadowTrace bytes.Buffer
				refCfg := base
				refCfg.Trace = &refTrace
				ref, err := Run(refCfg, jobs)
				if err != nil {
					t.Fatalf("threshold run: %v", err)
				}

				shadowCfg := base
				shadowCfg.Trace = &shadowTrace
				shadowCfg.Scheduler = core.NewTuner(sc.mk(),
					core.WhatIf(testPlanner(whatif.Config{Observe: true})))
				shadow, err := Run(shadowCfg, jobs)
				if err != nil {
					t.Fatalf("shadow run: %v", err)
				}

				if shadow.WhatIf == nil || shadow.WhatIf.Evaluated == 0 {
					t.Fatal("shadow planner never evaluated a rollout — the no-leak claim is vacuous")
				}
				if shadow.WhatIf.Commits != 0 {
					t.Fatalf("observe-mode planner committed %d decisions", shadow.WhatIf.Commits)
				}
				if !bytes.Equal(shadowTrace.Bytes(), refTrace.Bytes()) {
					t.Error("shadow what-if run diverged from the threshold-only trace")
				}
				if scheduleHash(shadow) != scheduleHash(ref) {
					t.Error("shadow what-if schedule differs from the threshold-only schedule")
				}
				if g.fair {
					for id, w := range ref.FairStarts {
						if g2, ok := shadow.FairStarts[id]; !ok || g2 != w {
							t.Fatalf("job %d: shadow fair start %v, threshold %v", id, g2, w)
						}
					}
				}
			})
		}
	}
}

// TestWhatIfHorizonShorterThanPass pins the shortest useful lookahead:
// a horizon shorter than the periodic scheduling interval covers only
// the fork-instant pass, so every rollout scores that single pass and
// the run must still complete cleanly end to end.
func TestWhatIfHorizonShorterThanPass(t *testing.T) {
	jobs := diffTrace(t, 11, 80)
	res, err := Run(Config{
		Machine:        machine.NewFlat(512),
		Scheduler:      core.NewTuner(core.WhatIf(testPlanner(whatif.Config{Horizon: units.Minute}))),
		SchedulePeriod: 10 * units.Minute,
		Paranoid:       true,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WhatIf == nil || res.WhatIf.Evaluated == 0 {
		t.Fatal("planner never evaluated a rollout under the one-minute horizon")
	}
}

// TestWhatIfHorizonSpansRetuneTick crosses the other boundary: a
// horizon longer than the checking interval makes every fork replay at
// least one nested checkpoint. Nested engines never retune (the policy
// is frozen in forks, exactly as in fairness worlds), so the rollout
// measures the candidate settings held constant — the test pins that
// such forks run to the horizon without tripping the validity oracle.
func TestWhatIfHorizonSpansRetuneTick(t *testing.T) {
	jobs := diffTrace(t, 12, 80)
	res, err := Run(Config{
		Machine:       machine.NewFlat(512),
		Scheduler:     core.NewTuner(core.WhatIf(testPlanner(whatif.Config{Horizon: 2 * units.Hour}))),
		CheckInterval: 30 * units.Minute,
		Paranoid:      true,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WhatIf == nil || res.WhatIf.Evaluated == 0 {
		t.Fatal("planner never evaluated a rollout under the retune-spanning horizon")
	}
}

// TestWhatIfEmptyQueueAtFork pins the empty-queue skip: checkpoints
// that fire with nothing waiting (one long job owns the machine) must
// count as skips — no rollouts, no commits — and the run must stay
// valid.
func TestWhatIfEmptyQueueAtFork(t *testing.T) {
	one := diffTrace(t, 13, 1)
	one[0].Nodes = 64
	one[0].Runtime = 3 * units.Hour
	one[0].Walltime = 4 * units.Hour
	res, err := Run(Config{
		Machine:   machine.NewFlat(512),
		Scheduler: core.NewTuner(core.WhatIf(testPlanner(whatif.Config{}))),
		Paranoid:  true,
	}, one)
	if err != nil {
		t.Fatal(err)
	}
	st := res.WhatIf
	if st == nil {
		t.Fatal("Result.WhatIf is nil")
	}
	if st.Ticks == 0 {
		t.Fatal("no checkpoints fired")
	}
	if st.Skipped != st.Ticks {
		t.Errorf("%d of %d ticks skipped; every fork had an empty queue", st.Skipped, st.Ticks)
	}
	if st.Commits != 0 || st.Evaluated != 0 {
		t.Errorf("empty-queue ticks ran rollouts: %d evaluated, %d commits", st.Evaluated, st.Commits)
	}
}

// TestLookaheadReadsQueueOnce is the -race pin on the rollout fan-out.
// A queue removal between steps (a cancel; a submission alone does not)
// leaves the engine's cached queue view stale, and rebuilding it is a
// write — so Lookahead must read the view once, before the rollouts go
// parallel, never from inside each one. One cancel → Lookahead round
// races only some of the time, hence the repeats.
func TestLookaheadReadsQueueOnce(t *testing.T) {
	l, err := NewLive(Config{Machine: machine.NewFlat(64), Scheduler: core.NewMetricAware(0.5, 2)}, false)
	if err != nil {
		t.Fatal(err)
	}
	const queued = 40
	for id := 1; id <= 1+queued; id++ { // job 1 fills the machine; the rest wait
		if _, err := l.Submit(&job.Job{ID: id, User: "u", Submit: units.Time(id), Nodes: 64,
			Walltime: 10 * units.Hour, Runtime: 10 * units.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AdvanceTo(1 + queued); err != nil {
		t.Fatal(err)
	}
	for id := 2; id < queued; id++ {
		if !l.Cancel(id) {
			t.Fatalf("cancel of queued job %d refused", id)
		}
		cands := []sched.Scheduler{core.NewMetricAware(1, 1), core.NewMetricAware(0.5, 2)}
		out, ok := l.e.Lookahead(cands, units.Hour, 2, 0)
		if !ok || len(out) != 2 || !out[0].Valid || !out[1].Valid {
			t.Fatalf("lookahead after cancelling job %d: ok=%v rollouts=%+v", id, ok, out)
		}
		if want := 1 + queued - id; out[0].LeftQueued != want {
			t.Fatalf("rollout saw %d queued jobs after cancelling job %d, want %d", out[0].LeftQueued, id, want)
		}
	}
}

// untunedLie wraps a what-if candidate so that it reports every pass
// Untuned, whether or not the pass read a tunable.
type untunedLie struct{ s *core.MetricAware }

func (u untunedLie) Name() string           { return u.s.Name() }
func (u untunedLie) Schedule(env sched.Env) { u.s.Schedule(env) }
func (u untunedLie) Clone() sched.Scheduler { return untunedLie{u.s.Clone().(*core.MetricAware)} }
func (u untunedLie) LastPass() sched.PassReport {
	r := u.s.LastPass()
	r.Untuned = true
	return r
}

// lyingEnv hands the engine's Lookahead its candidates wrapped in
// untunedLie.
type lyingEnv struct{ *engine }

func (l lyingEnv) Lookahead(cands []sched.Scheduler, horizon units.Duration, workers int, budget time.Duration) ([]sched.Rollout, bool) {
	lies := make([]sched.Scheduler, len(cands))
	for i, c := range cands {
		lies[i] = untunedLie{c.(*core.MetricAware)}
	}
	return l.engine.Lookahead(lies, horizon, workers, budget)
}

// lyingTuner is a what-if Tuner whose checkpoints see lyingEnv.
type lyingTuner struct{ *core.Tuner }

func (l lyingTuner) Checkpoint(env sched.Env, m sched.MetricsView) {
	l.Tuner.Checkpoint(lyingEnv{env.(*engine)}, m)
}
func (l lyingTuner) Clone() sched.Scheduler { return lyingTuner{l.Tuner.Clone().(*core.Tuner)} }

// TestAlwaysUntunedFailsAudit is the mutation gate of the what-if prefix
// sharing. Candidates that claim every pass Untuned stretch the shared
// prefix over passes that read the tunables: with a reservation held,
// every pass that starts nothing is truly untuned, so the lie shows only
// where a pass grants the reservation, and a candidate ranking the queue
// otherwise would have granted it elsewhere and backfilled a job. The
// Paranoid audit, which rolls every shared candidate out again from the
// live engine, must catch that on this seeded Intrepid trace and name
// the tick and the candidate. The honest policy on the same trace is
// the control: the same audit passes it.
func TestAlwaysUntunedFailsAudit(t *testing.T) {
	gen := workload.Intrepid(3)
	gen.MaxJobs = 800
	jobs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	run := func(s sched.Scheduler) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		if _, err := Run(Config{Machine: machine.NewIntrepid(), Scheduler: s,
			SchedulePeriod: 10 * units.Second, Paranoid: true}, jobs); err != nil {
			t.Fatal(err)
		}
		return ""
	}
	planner := func() *whatif.Planner { return whatif.NewPlanner(whatif.Config{}) }
	if msg := run(core.NewTuner(core.WhatIf(planner()))); msg != "" {
		t.Fatalf("the audit fails the honest policy: %s", msg)
	}
	msg := run(lyingTuner{core.NewTuner(core.WhatIf(planner()))})
	if msg == "" {
		t.Fatal("the Paranoid lookahead audit accepted candidates that report every pass Untuned")
	}
	if !strings.Contains(msg, "what-if tick at") || !strings.Contains(msg, "candidate") {
		t.Fatalf("audit panic does not name the tick and the candidate: %s", msg)
	}
}

// The rollouts past the shared prefix fan out across workers, each in
// its own world: a Paranoid run with four workers must reach the same
// schedule, counters and decision log as a serial one. Under -race this
// is the test that runs forked rollouts concurrently.
func TestWhatIfWorkersMatchSerial(t *testing.T) {
	jobs := diffTrace(t, 11, 120)
	run := func(workers int) *Result {
		p := testPlanner(whatif.Config{})
		p.SetWorkers(workers)
		res, err := Run(Config{
			Machine:   machine.NewPartition(8, 64),
			Scheduler: core.NewTuner(core.WhatIf(p)),
			Paranoid:  true,
		}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, fanned := run(1), run(4)
	if scheduleHash(fanned) != scheduleHash(serial) {
		t.Error("four rollout workers changed the schedule")
	}
	compareWhatIf(t, "workers=4", fanned.WhatIf, serial.WhatIf)
	// A commit means some candidate outscored the incumbent, so its
	// rollout forked and ran on its own rather than copying the
	// incumbent's.
	if serial.WhatIf.Commits == 0 {
		t.Fatal("no tick forked its candidates: nothing ran in parallel")
	}
}
