package main

import (
	"bytes"
	"io"
	"time"

	"amjs/internal/core"
	"amjs/internal/eventq"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/metrics"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/sim"
	"amjs/internal/stats"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// layerMetrics names every per-layer metric of a traced run; the prefix
// is the internal/ package measured. A workload that never enters a
// layer, or a mode of it, reports 0 there: server.* on the simulations,
// whatif.* without a planner, sim.oracle_share_pct with fairness off.
// benchmarks/README.md says which end-to-end cell each should move.
var layerMetrics = []struct{ name, unit string }{
	{"machine.plan_build_ns", "ns"},
	{"machine.earliest_start_ns", "ns"},
	{"machine.startable_now_ns", "ns"},
	{"machine.commit_restore_ns", "ns"},
	{"machine.start_release_ns", "ns"},
	{"machine.clone_into_ns", "ns"},
	{"machine.plan_clone_ns", "ns"},
	{"core.pass_us_w1", "us"},
	{"core.pass_us_w5", "us"},
	{"core.pass_us_w5_par", "us"},
	{"core.prioritize_ns_per_job", "ns"},
	{"core.passes_started_pct", "%"},
	{"core.search_share_pct", "%"},
	{"sched.easy_pass_us", "us"},
	{"sim.oracle_share_pct", "%"},
	{"sim.periodic_over_event_ratio", "ratio"},
	{"sim.stream_over_batch_ratio", "ratio"},
	{"sim.live_submit_us", "us"},
	{"sim.unfair_jobs", "count"},
	{"whatif.ticks", "count"},
	{"whatif.rollouts", "count"},
	{"whatif.commits", "count"},
	{"whatif.skipped", "count"},
	{"whatif.commit_ratio", "ratio"},
	{"whatif.tick_ms_mean", "ms"},
	{"whatif.share_pct", "%"},
	{"workload.gen_ns_per_job", "ns"},
	{"workload.stream_ns_per_job", "ns"},
	{"workload.swf_parse_ns_per_job", "ns"},
	{"metrics.avg_wait_min", "min"},
	{"metrics.util_pct", "%"},
	{"metrics.loc_pct", "%"},
	{"eventq.push_pop_ns", "ns"},
	{"server.post_ms_p50", "ms"},
	{"server.post_ms_p99", "ms"},
	{"server.post_ms_max", "ms"},
	{"server.handler_us_per_job", "us"},
	{"server.submit_batch_us_per_job", "us"},
	{"server.drain_ms", "ms"},
	{"server.new_close_ms", "ms"},
	{"server.read_ms_p50", "ms"},
	{"server.events_ingest_ratio", "ratio"},
	{"server.jobs_per_flush", "count"},
	{"server.lane_flushes", "count"},
	{"server.overloaded_items", "count"},
	{"trace.overhead_pct", "%"},
}

const (
	probeStates   = 32   // mid-trace states the state probes run on
	probeQueueCap = 1024 // waiting jobs kept per state, oldest first
	variantRuns   = 2    // simulations behind each op-level ratio
)

// overheadPct is how much slower the traced half of the window carried
// jobs than the untraced half, in percent.
func overheadPct(plain, traced *recorder) float64 {
	if plain.jobs == 0 || traced.jobs == 0 {
		return 0
	}
	p := float64(plain.jobs) / plain.wall.Seconds()
	t := float64(traced.jobs) / traced.wall.Seconds()
	return (1 - t/p) * 100
}

// state is one real mid-trace instant as a scheduling pass would meet
// it: the machine's occupancy and the waiting queue.
type state struct {
	now   units.Time
	m     machine.Machine
	queue []*job.Job
}

// env builds a fresh scheduling environment over copies of the state.
func (s *state) env() *schedtest.Env {
	e := schedtest.New(s.m.Clone(), job.CloneAll(s.queue)...)
	e.T = s.now
	return e
}

// requests are the (nodes, walltime) probes sent to the state's plan:
// the head of its queue, and two fixed sizes so an empty queue still
// measures something.
func (s *state) requests() []*job.Job {
	reqs := append([]*job.Job(nil), s.queue[:min(8, len(s.queue))]...)
	return append(reqs,
		&job.Job{Nodes: 512, Walltime: units.Hour},
		&job.Job{Nodes: 4096, Walltime: 6 * units.Hour})
}

// replay feeds the trace through a live session, as the daemon would,
// and captures probeStates states evenly spaced over the schedule. A
// state is taken just before the first arrival instant at or after its
// time, with that instant's arrivals already waiting: every earlier
// instant has had its pass, so a pass on the state is the one the
// engine runs for those arrivals. Past the last arrival the state is
// the one the engine leaves behind. It also returns the mean cost of
// Live.Submit and the session's collector after Drain.
func replay(cfg sim.Config, jobs []*job.Job, makespan units.Duration) ([]state, float64, *metrics.Collector, error) {
	live, err := sim.NewLive(cfg, false)
	if err != nil {
		return nil, 0, nil, err
	}
	first := jobs[0].Submit
	at := func(k int) units.Time {
		return first.Add(makespan * units.Duration(k+1) / units.Duration(probeStates+1))
	}
	var states []state
	capture := func(now units.Time, arrivals []*job.Job) {
		queue := live.Queue()
		queue = job.CloneAll(queue[:min(probeQueueCap, len(queue))])
		for _, j := range arrivals {
			c := j.Clone()
			c.State = job.Queued
			queue = append(queue, c)
		}
		states = append(states, state{now: now, m: live.Machine().Clone(), queue: queue})
	}

	var submitting time.Duration
	next := 0
	for i, j := range jobs {
		t0 := time.Now()
		_, err := live.Submit(j)
		submitting += time.Since(t0)
		if err != nil {
			return nil, 0, nil, err
		}
		if next < probeStates && j.Submit >= at(next) && (i == 0 || jobs[i-1].Submit < j.Submit) {
			end := i + 1
			for end < len(jobs) && jobs[end].Submit == j.Submit {
				end++
			}
			capture(j.Submit, jobs[i:end])
			for next < probeStates && at(next) <= j.Submit {
				next++
			}
		}
	}
	for ; next < probeStates; next++ {
		if err := live.AdvanceTo(at(next)); err != nil {
			return nil, 0, nil, err
		}
		capture(at(next), nil)
	}
	if err := live.Drain(); err != nil {
		return nil, 0, nil, err
	}
	submitUS := float64(submitting.Nanoseconds()) / 1e3 / float64(len(jobs))
	return states, submitUS, live.Collector(), nil
}

// prober runs the state probes: each measures for at least budget.
type prober struct {
	states []state
	budget time.Duration
	out    map[string]float64
}

// perCall runs fn on each state, round after round, until the rounds
// have taken the budget, and returns nanoseconds per call. fn returns
// how many calls of the measured function it made.
func (p *prober) perCall(fn func(i int) int) float64 {
	var (
		spent time.Duration
		calls int
	)
	for spent < p.budget {
		t0 := time.Now()
		for i := range p.states {
			calls += fn(i)
		}
		spent += time.Since(t0)
	}
	if calls == 0 {
		return 0
	}
	return float64(spent.Nanoseconds()) / float64(calls)
}

// planned is a state's plan with the requests probed against it and
// the answers a commit needs. The probes leave the plan as they found
// it, so one serves every round.
type planned struct {
	plan  machine.Plan
	reqs  []*job.Job
	start []units.Time
	hint  []int
}

func newPlanned(s *state) planned {
	p := planned{plan: s.m.Plan(s.now), reqs: s.requests()}
	for _, r := range p.reqs {
		ts, hint := p.plan.EarliestStart(r.Nodes, r.Walltime)
		p.start, p.hint = append(p.start, ts), append(p.hint, hint)
	}
	return p
}

// machine times the machine model's planning primitives on the states.
func (p *prober) machine() {
	states, out, n := p.states, p.out, len(p.states)
	plans := make([]planned, n)
	work := make([]machine.Machine, n) // scratch machines: clone target, start/release
	spare := make([]machine.Plan, n)   // clone targets for the plans
	for i := range states {
		plans[i] = newPlanned(&states[i])
		work[i] = states[i].m.Clone()
		spare[i] = plans[i].plan.Clone()
	}

	out["machine.plan_build_ns"] = p.perCall(func(i int) int {
		s := &states[i]
		pl := s.m.Plan(s.now)
		if r, ok := s.m.(machine.PlanRecycler); ok {
			r.Recycle(pl) // as a pass does: build, use, hand back
		}
		return 1
	})
	out["machine.earliest_start_ns"] = p.perCall(func(i int) int {
		p := &plans[i]
		for _, r := range p.reqs {
			p.plan.EarliestStart(r.Nodes, r.Walltime)
		}
		return len(p.reqs)
	})
	out["machine.startable_now_ns"] = p.perCall(func(i int) int {
		p := &plans[i]
		for _, r := range p.reqs {
			p.plan.StartableNow(r.Nodes, r.Walltime)
		}
		return len(p.reqs)
	})
	out["machine.commit_restore_ns"] = p.perCall(func(i int) int {
		p, calls := &plans[i], 0
		for k, r := range p.reqs {
			if p.start[k] == units.Forever {
				continue
			}
			mark := p.plan.Save()
			p.plan.Commit(r.Nodes, p.start[k], r.Walltime, p.hint[k])
			p.plan.Restore(mark)
			calls++
		}
		return calls
	})
	out["machine.start_release_ns"] = p.perCall(func(i int) int {
		calls := 0
		for _, r := range plans[i].reqs {
			if a, ok := work[i].TryStart(1<<30, r.Nodes, states[i].now, r.Walltime); ok {
				work[i].Release(a, states[i].now)
				calls++
			}
		}
		return calls
	})
	out["machine.clone_into_ns"] = p.perCall(func(i int) int {
		work[i] = machine.CloneMachineInto(states[i].m, work[i])
		return 1
	})
	out["machine.plan_clone_ns"] = p.perCall(func(i int) int {
		if c, ok := plans[i].plan.(machine.PlanCloner); ok {
			spare[i] = c.CloneInto(spare[i])
		} else {
			spare[i] = plans[i].plan.Clone()
		}
		return 1
	})
}

// pass times one scheduling pass of the policy per state, round after
// round until the passes have taken the budget. Each pass runs
// on fresh copies of the state, and on a fresh clone of base that
// adopts the previous clone's scratch buffers, the way the engine's
// forks do: the pass is warm but carries no reservation over from
// another state. It returns microseconds per pass and the share of
// passes that started a job.
func (p *prober) pass(base sched.Scheduler) (us, startedPct float64) {
	type adopter interface{ AdoptScratch(sched.Scheduler) }
	var (
		spent           time.Duration
		passes, started int
	)
	prev := base.Clone()
	for spent < p.budget {
		for i := range p.states {
			env := p.states[i].env()
			sch := base.Clone()
			if a, ok := sch.(adopter); ok {
				a.AdoptScratch(prev)
			}
			t0 := time.Now()
			sch.Schedule(env)
			spent += time.Since(t0)
			prev = sch
			passes++
			if len(env.Started) > 0 {
				started++
			}
		}
	}
	return float64(spent.Nanoseconds()) / 1e3 / float64(passes), 100 * float64(started) / float64(passes)
}

// scheduler times whole scheduling passes and the priority sort on the
// states.
func (p *prober) scheduler() {
	states, out := p.states, p.out
	w1, _ := p.pass(core.NewMetricAware(0.5, 1))
	w5, startedPct := p.pass(core.NewMetricAware(0.5, 5))
	out["core.pass_us_w1"], out["core.pass_us_w5"], out["core.passes_started_pct"] = w1, w5, startedPct
	// The share of a W=5 pass that the window costs, on identical
	// states. Whole simulations at W=1 and W=5 cannot give it: they
	// build different schedules and backlogs (W=1 takes several times
	// longer at scale), so their ratio is not a share of anything.
	out["core.search_share_pct"] = (1 - w1/w5) * 100
	par := core.NewMetricAware(0.5, 5)
	par.SearchWorkers = -1
	out["core.pass_us_w5_par"], _ = p.pass(par)
	out["sched.easy_pass_us"], _ = p.pass(sched.NewEASY())

	out["core.prioritize_ns_per_job"] = p.perCall(func(i int) int {
		core.Prioritize(states[i].now, states[i].queue, 0.5)
		return len(states[i].queue)
	})
}

// eventq is the cost of one Push plus one Pop when the trace's submit
// times pass through the engine's event queue.
func (p *prober) eventq(jobs []*job.Job) float64 {
	var (
		q     eventq.Queue[*job.Job]
		spent time.Duration
		n     int
	)
	for spent < p.budget {
		t0 := time.Now()
		for _, j := range jobs {
			q.Push(j.Submit, 0, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		spent += time.Since(t0)
		n += len(jobs)
	}
	return float64(spent.Nanoseconds()) / float64(n)
}

// drain pulls a source dry and returns how many jobs it held.
func drain(src workload.Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// sourceProbes times the trace sources per job: the batch generator,
// the incremental one, and the SWF parser over the trace written out
// as text.
func sourceProbes(gen workload.Config, jobs []*job.Job, tr *tracer, out map[string]float64) error {
	var (
		n   int
		err error
	)
	perJob := func(dt time.Duration) float64 { return float64(dt.Nanoseconds()) / float64(max(n, 1)) }

	dt := tr.timed("workload.Config.Generate", func() {
		var generated []*job.Job
		generated, err = gen.Generate()
		n = len(generated)
	})
	if err != nil {
		return err
	}
	out["workload.gen_ns_per_job"] = perJob(dt)

	src, err := gen.Stream()
	if err != nil {
		return err
	}
	dt = tr.timed("workload.Stream.drain", func() { n, err = drain(src) })
	if err != nil {
		return err
	}
	out["workload.stream_ns_per_job"] = perJob(dt)

	var swf bytes.Buffer
	if err := workload.WriteSWF(&swf, jobs, ""); err != nil {
		return err
	}
	dt = tr.timed("workload.SWFSource.drain", func() {
		n, err = drain(workload.NewSWFSource(&swf, workload.SWFOptions{}, 0))
	})
	if err != nil {
		return err
	}
	out["workload.swf_parse_ns_per_job"] = perJob(dt)
	return nil
}

// stateProbes replays the trace into states and runs every probe that
// works on them.
func stateProbes(cfg sim.Config, jobs []*job.Job, makespan units.Duration, budget time.Duration, tr *tracer, out map[string]float64) (*metrics.Collector, error) {
	var (
		states   []state
		submitUS float64
		coll     *metrics.Collector
		err      error
	)
	tr.timed("sim.Live.replay", func() { states, submitUS, coll, err = replay(cfg, jobs, makespan) })
	if err != nil {
		return nil, err
	}
	tr.count("probe.states", int64(len(states)))
	out["sim.live_submit_us"] = submitUS

	p := &prober{states: states, budget: budget, out: out}
	tr.timed("probe.machine", p.machine)
	tr.timed("probe.scheduler", p.scheduler)
	tr.timed("probe.eventq", func() { out["eventq.push_pop_ns"] = p.eventq(jobs) })
	return coll, nil
}

// variantMS is the median wall time of the workload's simulation under
// a changed configuration; the op-level shares compare it with the
// window's own median op.
func (w *simWorkload) variantMS(cfg sim.Config, stream bool, tr *tracer) (float64, error) {
	var ms []float64
	for i := 0; i < variantRuns; i++ {
		t0 := time.Now()
		if _, err := w.simulate(cfg, stream, tr, 0); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return stats.Percentile(ms, 50), nil
}

func (w *simWorkload) layers(tr *tracer, plain, traced *recorder, out map[string]float64) error {
	out["trace.overhead_pct"] = overheadPct(plain, traced)
	opMS := stats.Percentile(plain.opMS, 50)

	m := w.ref.res.Metrics
	out["metrics.avg_wait_min"] = m.AvgWaitMinutes()
	out["metrics.util_pct"] = m.UtilAvg() * 100
	out["metrics.loc_pct"] = m.LoC() * 100
	out["sim.unfair_jobs"] = float64(m.UnfairCount())

	if ws := w.traced.WhatIf; ws != nil {
		out["whatif.ticks"] = float64(ws.Ticks)
		out["whatif.rollouts"] = float64(ws.Evaluated)
		out["whatif.commits"] = float64(ws.Commits)
		out["whatif.skipped"] = float64(ws.Skipped)
		if ws.Ticks > 0 {
			out["whatif.commit_ratio"] = float64(ws.Commits) / float64(ws.Ticks)
		}
		if ws.LatCount > 0 {
			out["whatif.tick_ms_mean"] = ws.LatSumSec / float64(ws.LatCount) * 1e3
		}
		out["whatif.share_pct"] = ws.LatSumSec * 1e3 / w.tracedMS * 100
	}

	if w.jobs == nil {
		if err := w.collect(tr); err != nil {
			return err
		}
	}
	if err := sourceProbes(w.gen, w.jobs, tr, out); err != nil {
		return err
	}

	// Each share is one minus the op without the layer over the op with
	// it; each ratio divides the changed mode by the op's own.
	if w.cfg.Fairness {
		cfg := w.cfg
		cfg.Fairness = false
		ms, err := w.variantMS(cfg, w.stream, tr)
		if err != nil {
			return err
		}
		out["sim.oracle_share_pct"] = (1 - ms/opMS) * 100
	}
	if w.cfg.SchedulePeriod > 0 {
		cfg := w.cfg
		cfg.SchedulePeriod = 0
		ms, err := w.variantMS(cfg, w.stream, tr)
		if err != nil {
			return err
		}
		out["sim.periodic_over_event_ratio"] = opMS / ms
	}
	ms, err := w.variantMS(w.cfg, !w.stream, tr)
	if err != nil {
		return err
	}
	if w.stream {
		out["sim.stream_over_batch_ratio"] = opMS / ms
	} else {
		out["sim.stream_over_batch_ratio"] = ms / opMS
	}

	// The states come from the workload's own policy with the oracle
	// off: the fair-start forks do not change the schedule.
	cfg := w.cfg
	cfg.Fairness = false
	_, err = stateProbes(cfg, w.jobs, w.ref.makespan, w.budget, tr, out)
	return err
}
