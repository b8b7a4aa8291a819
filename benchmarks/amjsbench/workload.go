package main

import (
	"fmt"
	"strconv"
	"time"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/rng"
	"amjs/internal/sim"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// sizes scales the workloads. defaultSizes is the benchmark; the tests
// shrink it so `go test ./...` stays fast.
type sizes struct {
	yearJobs   int // job cap of the batch-atscale trace
	monthJobs  int // job cap of the month trace (0: the whole month)
	daemonJobs int // jobs one daemon-ingest cycle submits

	probeBudget time.Duration // least time one state probe measures for
}

var defaultSizes = sizes{
	yearJobs: 50_000, monthJobs: 0, daemonJobs: 100_000,
	probeBudget: 50 * time.Millisecond,
}

// recorder collects what one timed window did.
type recorder struct {
	opMS   []float64     // one wall-time sample per op
	wall   time.Duration // sum of the steps' wall time
	jobs   int           // jobs carried to completion
	ops    int
	failed int // ops whose outputs did not match the verification op
	errs   []string
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// scenario is one workload of the benchmark: a closed-loop load on the
// system. (The name workload belongs to the trace-generator package.)
type scenario interface {
	// setup makes the inputs from the seed, builds the system under
	// test, runs the Paranoid verification op that every timed op is
	// compared with, and then the warm-up ops.
	setup(seed int64, tr *tracer) error

	// step runs one closed-loop unit to completion (one simulation, or
	// one daemon cycle: POSTs, Drain, Stats, Close), records a latency
	// sample per op and checks the outputs. op numbers the step.
	step(tr *tracer, op int, rec *recorder)

	// avgBSLD is the mean bounded slowdown of the schedules the window
	// produced.
	avgBSLD() float64

	// layers measures the per-layer metrics this workload reaches; see
	// probes.go. plain and traced are the two halves of the traced
	// run's window.
	layers(tr *tracer, plain, traced *recorder, out map[string]float64) error

	close()
}

// workloadNames is the order BENCHMARK.json lists them in.
var workloadNames = []string{"batch-atscale", "fair-periodic", "whatif-stream", "daemon-ingest"}

func newScenario(name string, sz sizes) (scenario, error) {
	month := workload.Intrepid(traceSeed)
	month.MaxJobs = sz.monthJobs
	year := workload.IntrepidYear(traceSeed)
	year.MaxJobs = sz.yearJobs
	switch name {
	case "batch-atscale":
		return &simWorkload{
			name:    name,
			gen:     year,
			cfg:     sim.Config{Machine: machine.NewIntrepid(), Scheduler: core.NewMetricAware(0.5, 5)},
			warmups: 2,
			budget:  sz.probeBudget,
		}, nil
	case "fair-periodic":
		return &simWorkload{
			name: name,
			gen:  month,
			cfg: sim.Config{
				Machine: machine.NewIntrepid(), Scheduler: core.NewMetricAware(0.5, 4),
				Fairness: true, SchedulePeriod: 10 * units.Second,
			},
			warmups: 3,
			budget:  sz.probeBudget,
		}, nil
	case "whatif-stream":
		return &simWorkload{
			name: name,
			gen:  month,
			cfg: sim.Config{
				Machine:   machine.NewIntrepid(),
				Scheduler: core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{}))),
			},
			stream:  true,
			warmups: 4,
			budget:  sz.probeBudget,
		}, nil
	case "daemon-ingest":
		return &daemonWorkload{jobsPerCycle: sz.daemonJobs, warmups: 4, probeBudget: sz.probeBudget}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// simWorkload is a whole-trace simulation on the Intrepid model: one op
// is one sim.Run (or sim.RunStream) of the generated trace.
type simWorkload struct {
	name    string
	gen     workload.Config // the trace's shape; see seededSource
	cfg     sim.Config      // the engine clones its machine and scheduler per run
	stream  bool            // op is RunStream over Config.Stream with a sink
	warmups int
	budget  time.Duration // of each state probe

	seed  int64
	jobs  []*job.Job // nil when streaming: the op pulls from source()
	spans []span     // per-op (Start, End) by ID-1, input of the digest
	ref   outcome    // the verification op

	// The last traced op and its wall time: the what-if planner's own
	// accounting is compared with the op that produced it.
	traced   *sim.Result
	tracedMS float64
}

// outcome is what one simulation produced, as far as the checks go.
type outcome struct {
	jobs     int
	makespan units.Duration
	bsld     float64
	digest   uint64
	res      *sim.Result
}

func (o outcome) same(p outcome) bool {
	return o.jobs == p.jobs && o.makespan == p.makespan && o.bsld == p.bsld && o.digest == p.digest
}

func (w *simWorkload) setup(seed int64, tr *tracer) error {
	w.seed = seed
	if !w.stream {
		if err := w.collect(tr); err != nil {
			return err
		}
	}
	ref, err := w.run(true, tr, 0)
	if err != nil {
		return fmt.Errorf("%s: verification op: %w", w.name, err)
	}
	w.ref = ref
	for i := 0; i < w.warmups; i++ {
		if _, err := w.run(false, nil, 0); err != nil {
			return fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}
	}
	return nil
}

// traceSeed seeds the generator of every simulated trace; it is the
// seed the repository's own benchmarks use.
const traceSeed = 42

// runtimeJitter is the most a seeded trace shortens a job's runtime.
// Larger cuts move the metrics themselves (a two-minute job cut by one
// has twice the slowdown); this is enough to reorder completions.
const runtimeJitter = 5 * units.Second

// seededSource is the workload's trace for one benchmark seed: the
// preset's jobs in the preset's order, each with its user redrawn and
// its runtime shortened by up to runtimeJitter from the seed.
//
// The generator itself is not reseeded, because what a month of the
// preset costs to simulate is heavy-tailed in the generator seed: it
// depends on whether a burst lands on a few machine-wide jobs. Ten
// generator seeds gave fair-periodic ops from 160 ms to 1.6 s and mean
// bounded slowdowns from 3.8 to 8.1; even the year of 50 000 jobs
// spread jobs_per_s over 10 % between its quartiles. No metric can be
// held to a bound of that size across seeds on inputs like that.
// Redrawing the runtimes instead leaves the congestion episodes where
// they are and still gives every seed a schedule of its own (a
// completion a second earlier moves the starts behind it), so nothing
// about the expected outputs can be fixed ahead of the run.
type seededSource struct {
	src workload.Source
	r   *rng.Source
}

func (w *simWorkload) source() (*seededSource, error) {
	src, err := w.gen.Stream()
	if err != nil {
		return nil, err
	}
	return &seededSource{src: src, r: rng.New(w.seed)}, nil
}

func (s *seededSource) Next() (*job.Job, error) {
	j, err := s.src.Next()
	if err != nil {
		return nil, err
	}
	j.User = "u" + strconv.Itoa(1+s.r.Intn(60))
	cut := units.Duration(s.r.Intn(int(runtimeJitter) + 1))
	j.Runtime -= min(cut, j.Runtime-1)
	return j, nil
}

// collect materializes the seeded trace. The streaming workload's ops
// never need it; its layer probes do.
func (w *simWorkload) collect(tr *tracer) error {
	src, err := w.source()
	if err != nil {
		return err
	}
	sp := tr.begin("workload.Collect", 0, 0)
	jobs, err := workload.Collect(src)
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("%s: the trace is empty", w.name)
	}
	w.jobs = jobs
	if len(w.spans) < len(jobs) {
		w.spans = make([]span, len(jobs))
	}
	return nil
}

// timedSource sums the time spent inside a job source's Next, so a
// traced RunStream can report the generator as one aggregated span.
type timedSource struct {
	src   sim.JobSource
	first time.Time
	total time.Duration
	calls int64
}

func (s *timedSource) Next() (*job.Job, error) {
	t0 := time.Now()
	if s.calls == 0 {
		s.first = t0
	}
	j, err := s.src.Next()
	s.total += time.Since(t0)
	s.calls++
	return j, err
}

// simulate runs the trace once under cfg, as a batch (sim.Run) or
// streamed through a completion sink (sim.RunStream), and leaves every
// job's (Start, End) in w.spans.
func (w *simWorkload) simulate(cfg sim.Config, stream bool, tr *tracer, op int) (*sim.Result, error) {
	clear(w.spans)
	if !stream {
		sp := tr.begin("sim.Run", 0, op)
		res, err := sim.Run(cfg, w.jobs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, j := range res.Jobs {
			w.spans[j.ID-1] = span{j.Start, j.End}
		}
		return res, nil
	}
	seeded, err := w.source()
	if err != nil {
		return nil, err
	}
	var src sim.JobSource = seeded
	var timed *timedSource
	if tr != nil {
		timed = &timedSource{src: src}
		src = timed
	}
	sp := tr.begin("sim.RunStream", 0, op)
	res, err := sim.RunStream(cfg, src, func(j *job.Job) {
		for j.ID > len(w.spans) {
			w.spans = append(w.spans, span{})
		}
		w.spans[j.ID-1] = span{j.Start, j.End}
	})
	if timed != nil {
		tr.aggregate("workload.Stream.Next", sp, op, timed.first, timed.total)
		tr.count("workload.stream_next_calls", timed.calls)
	}
	tr.end(sp)
	return res, err
}

// run is one op: the workload's own simulation and the digest of its
// schedule.
func (w *simWorkload) run(paranoid bool, tr *tracer, op int) (outcome, error) {
	cfg := w.cfg
	cfg.Paranoid = paranoid
	res, err := w.simulate(cfg, w.stream, tr, op)
	if err != nil {
		return outcome{}, err
	}
	tr.count("sim.jobs", int64(res.AcceptedCount))
	return outcome{
		jobs:     res.AcceptedCount,
		makespan: res.Makespan,
		bsld:     res.Metrics.AvgBSLD(),
		digest:   scheduleDigest(w.spans),
		res:      res,
	}, nil
}

func (w *simWorkload) step(tr *tracer, op int, rec *recorder) {
	t0 := time.Now()
	got, err := w.run(false, tr, op)
	dt := time.Since(t0)
	rec.wall += dt
	rec.opMS = append(rec.opMS, float64(dt.Nanoseconds())/1e6)
	rec.ops++
	switch {
	case err != nil:
		rec.fail("%s op %d: %v", w.name, op, err)
	case !got.same(w.ref):
		rec.fail("%s op %d: jobs/makespan/bsld/digest %d/%d/%v/%016x, verification op had %d/%d/%v/%016x",
			w.name, op, got.jobs, got.makespan, got.bsld, got.digest,
			w.ref.jobs, w.ref.makespan, w.ref.bsld, w.ref.digest)
	default:
		rec.jobs += got.jobs
		if tr != nil {
			w.traced, w.tracedMS = got.res, float64(dt.Nanoseconds())/1e6
		}
	}
}

func (w *simWorkload) avgBSLD() float64 { return w.ref.bsld }

func (w *simWorkload) close() {}
