// Package sim is the event-driven job-scheduling simulator — the
// reproduction of the evaluation vehicle the paper uses (Cobalt's
// qsim). It replays a workload trace against a machine model under a
// pluggable scheduling policy, collects the paper's metrics, fires
// checkpoints for adaptive policy tuning, and runs the nested
// no-later-arrival simulations behind the fairness metric.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"amjs/internal/invariant"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/metrics"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// Event kinds, ordered so that simultaneous events resolve as:
// completions first (freed nodes become visible), then arrivals, then
// scheduling ticks and checkpoints (monitors see the post-arrival
// state).
const (
	evEnd = iota
	evArrive
	evTick
	evCheckpoint
)

// DefaultCheckInterval is the paper's checking interval C_i (Table I).
const DefaultCheckInterval = 30 * units.Minute

// DefaultFairnessTolerance is the slack added to a job's fair start
// time before the job counts as unfairly treated.
const DefaultFairnessTolerance = units.Minute

// maxEvents bounds a single simulation as a guard against scheduler
// livelock bugs; production traces stay far below it.
const maxEvents = 50_000_000

// Config describes one simulation run.
type Config struct {
	// Machine is the resource model; it is cloned, never mutated.
	Machine machine.Machine

	// Scheduler is the policy under test; it is cloned, never mutated.
	Scheduler sched.Scheduler

	// CheckInterval is the checkpoint period C_i (monitors sample and
	// adaptive policies retune). Defaults to 30 minutes.
	CheckInterval units.Duration

	// SchedulePeriod switches the engine from pure event-driven
	// scheduling (a pass after every event batch — the default, 0) to
	// the production resource manager's cadence: scheduling passes run
	// only on a periodic tick (Cobalt uses ~10 s, as §IV-D notes), so a
	// job arriving between ticks starts no earlier than the next tick.
	SchedulePeriod units.Duration

	// Fairness enables the fair-start-time oracle: every submission
	// gets the start it would have had if no job arrived after it, under
	// the current policy. Most arrival batches resolve for free against
	// the main schedule; only a batch the schedule diverges from pays
	// for a nested no-later-arrival simulation (see fairOracle), which
	// runs on another processor while the main schedule advances. Exact,
	// but still the dominant cost of a run that enables it; leave off
	// when the unfair-job count is not needed.
	Fairness bool

	// FairnessTolerance is the slack beyond the fair start before a job
	// counts as unfair. Defaults to one minute.
	FairnessTolerance units.Duration

	// Paranoid arms the full schedule-validity oracle
	// (internal/invariant): the engine checks its structural invariants
	// after every scheduling step (machine conservation, queue/running
	// disjointness) and panics on violation, records an independent
	// event trace that is replayed and audited when the run completes
	// (capacity, double-booking, lifecycle, reservation protection,
	// retune rules, metrics recompute), and lets the policy cross-check
	// its pruned window search against the exhaustive W! oracle. Used
	// by the test suite and the fuzz/differential harnesses; costs a
	// few percent of runtime plus the recorded trace's memory.
	Paranoid bool

	// Trace, when non-nil, receives one line per simulation event
	// (arrivals, starts, completions, checkpoints) — a debugging and
	// teaching aid, not a metrics path.
	Trace io.Writer

	// disableElision turns off no-op scheduling-pass elision, forcing a
	// policy invocation at every due pass exactly as the naive engine
	// did. Test hook: the equivalence suite proves elision on/off yields
	// identical schedules.
	disableElision bool

	// naiveOracle routes fairness queries through the reference oracle
	// (a fresh, fully cloned, elision-free nested engine per target job)
	// instead of the batched, state-reusing one. Test hook: the
	// oracle-equivalence suite proves both produce bit-identical fair
	// starts.
	naiveOracle bool
}

// Result is the outcome of a simulation.
type Result struct {
	Policy   string
	Jobs     []*job.Job // accepted jobs, all completed, in input order
	Rejected []*job.Job // jobs that could never fit the machine
	Metrics  *metrics.Collector

	// FairStarts maps job ID to oracle fair start time (when enabled).
	FairStarts map[int]units.Time

	// Makespan is the span from the first submission to the last
	// completion.
	Makespan units.Duration

	// AcceptedCount and RejectedCount duplicate len(Jobs) and
	// len(Rejected) for runs that retain them, and are the only census
	// available from a sink-driven RunStream, which retains neither.
	AcceptedCount int
	RejectedCount int

	// WhatIf is the what-if planner's final status (decision log,
	// counters) when the policy hosted one; nil otherwise.
	WhatIf *whatif.Status
}

// whatIfStatus snapshots the engine scheduler's what-if planner, when
// the policy hosts one (see whatif.Reporter).
func (e *engine) whatIfStatus() *whatif.Status {
	if r, ok := e.scheduler.(whatif.Reporter); ok {
		if st, ok := r.WhatIfStatus(); ok {
			return &st
		}
	}
	return nil
}

// Run simulates the workload under the configuration. The input jobs
// are cloned; the caller's slice is not modified.
func Run(cfg Config, jobs []*job.Job) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Fairness {
		// Pre-size the fair-start map: every accepted job gets exactly
		// one entry, so the map never rehashes mid-run.
		e.fairStarts = make(map[int]units.Time, len(jobs))
	}

	// One arena holds every job clone: a year-scale trace is one
	// allocation instead of one per job. The arena is pre-sized so the
	// pointers handed to the event queue stay valid as it fills.
	clones := make([]job.Job, 0, len(jobs))
	var accepted, rejected []*job.Job
	for i, src := range jobs {
		if err := src.Validate(); err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		clones = append(clones, *src)
		j := &clones[len(clones)-1]
		j.State = job.Submitted
		if !e.machine.CanFitEver(j.Nodes) {
			rejected = append(rejected, j)
			continue
		}
		accepted = append(accepted, j)
	}
	// Arrivals enter the FIFO in submit order, ties in input order (a
	// stable sort) — the order RunStream and Live inject them in.
	// Result.Jobs keeps input order, so an unsorted trace is sorted in a
	// copy.
	arrivals := accepted
	bySubmit := func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) }
	if !slices.IsSortedFunc(arrivals, bySubmit) {
		arrivals = slices.Clone(accepted)
		slices.SortStableFunc(arrivals, bySubmit)
	}
	for _, j := range arrivals {
		e.events.PushArrival(j)
	}
	var first units.Time // the earliest accepted submission
	if len(arrivals) > 0 {
		first = arrivals[0].Submit
		e.anchorGrids(first)
	}

	if err := e.run(nil); err != nil {
		return nil, err
	}
	for _, j := range accepted {
		if j.State != job.Finished && j.State != job.Killed {
			return nil, fmt.Errorf("sim: job %d never completed (state %v)", j.ID, j.State)
		}
	}
	if err := e.verifySchedule(); err != nil {
		return nil, err
	}

	res := &Result{
		Policy:        e.scheduler.Name(),
		Jobs:          accepted,
		Rejected:      rejected,
		Metrics:       e.collector,
		FairStarts:    e.fairStarts,
		AcceptedCount: len(accepted),
		RejectedCount: len(rejected),
		WhatIf:        e.whatIfStatus(),
	}
	if len(accepted) > 0 {
		lastEnd := accepted[0].End
		for _, j := range accepted {
			if j.End > lastEnd {
				lastEnd = j.End
			}
		}
		res.Makespan = lastEnd.Sub(first)
	}
	return res, nil
}

// engine is one simulation instance. It implements sched.Env and
// sched.MetricsView.
type engine struct {
	cfg        Config
	now        units.Time
	machine    machine.Machine
	scheduler  sched.Scheduler
	events     eventQueue
	queue      jobQueue // waiting jobs in arrival order
	running    map[*job.Job]machine.Alloc
	collector  *metrics.Collector
	fairStarts map[int]units.Time
	sub        bool                // a world's nested engine (see world.go): no retunes, no monitors, no oracle
	stream     *streamState        // non-nil when arrivals come from a JobSource (RunStream)
	processed  int                 // events handled since the last counter reset (livelock guard)
	rec        *invariant.Recorder // Paranoid top-level runs: the schedule-validity trace
	notify     Notify              // Live sessions only: transition observer (never set on sub engines)

	// keepGrids keeps the checkpoint and tick grids armed even when the
	// system drains empty. Batch runs leave it false — their grids wind
	// down with the pre-pushed arrivals — but a Live engine has no idea
	// whether more submissions are coming, so its monitors must keep
	// ticking across idle stretches. Live.Drain clears it temporarily to
	// reproduce batch termination exactly.
	keepGrids bool

	// Pass-elision state (see run): dirty records whether anything
	// schedule-relevant happened since the last executed scheduling
	// pass; lastDelta caches Eq. 4's δ — whether some queued job fits
	// the idle nodes — for the state the last pass left behind.
	dirty     bool
	lastDelta bool

	// machineGen counts the starts and completions applied to the
	// machine: with now, it identifies the occupancy a plan was built
	// from (Live.PredictStart's cached plan).
	machineGen uint64

	// lastQuiet records whether the last executed pass declared itself
	// quiescent (sched.PassReport): started nothing and provably
	// repeats as the same no-op on unchanged state at any later
	// instant. While it holds and nothing dirties the engine, due
	// passes are elided even when δ is true — the backfill-candidate-
	// behind-a-reservation regime that otherwise runs a full pass on
	// every tick of a congested stretch. δ itself (lastDelta) keeps its
	// Eq. 4 meaning for the metrics step series.
	lastQuiet bool

	// nextTick and nextCheck track the next armed instants of the tick
	// and checkpoint grids. During the step that fires a grid event they
	// still hold the firing instant (re-arming happens at the end of the
	// step), so the incremental fairness oracle can seed a nested run
	// with the exact grid continuation — including a pass at the current
	// instant when the main engine is about to run one.
	nextTick  units.Time
	nextCheck units.Time

	// endedNow records whether a completion event fired at the instant
	// being processed. Valid only within step (cancelQueued runs between
	// steps and must not consult it): the event-mode oracle uses it to
	// classify the instant — a completion instant is a pass instant in
	// every deferred batch's closed world too, while a phantom instant
	// (arrivals of extras, checkpoints) is not.
	endedNow bool

	// fair is the fairness oracle's state (oracle.go); idle unless
	// cfg.Fairness is set, and never used by a nested engine.
	fair fairOracle

	// Scratch reused across instants.
	arrived  []*job.Job // jobs that arrived at the current instant
	orderBuf []*job.Job // the running set, for checkInvariants

	// What-if lookahead scratch (see whatif.go): one private world per
	// candidate slot, reused across checkpoints, plus the rollout
	// result buffer handed to the planner.
	laWorlds []world
	laOut    []sched.Rollout
}

// newEngine builds a top-level engine for cfg: validation, defaults,
// private machine and scheduler clones, the collector, and the validity
// recorder of a Paranoid run.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Machine == nil {
		return nil, errors.New("sim: no machine configured")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: no scheduler configured")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = DefaultCheckInterval
	}
	if cfg.FairnessTolerance <= 0 {
		cfg.FairnessTolerance = DefaultFairnessTolerance
	}
	m := cfg.Machine.Clone()
	e := &engine{
		cfg:        cfg,
		machine:    m,
		scheduler:  cfg.Scheduler.Clone(),
		running:    make(map[*job.Job]machine.Alloc),
		collector:  metrics.NewCollector(m.TotalNodes()),
		fairStarts: make(map[int]units.Time),
		dirty:      true,
	}
	e.fair.e = e
	if cfg.Paranoid {
		e.initRecorder()
	}
	return e, nil
}

// anchorGrids arms the checkpoint grid and, in periodic mode, the tick
// grid at the first accepted submission — of the trace, of the stream,
// or of a Live session whose grids had wound down.
func (e *engine) anchorGrids(first units.Time) {
	e.nextCheck = first.Add(e.cfg.CheckInterval)
	e.events.Push(e.nextCheck, evCheckpoint, nil)
	if e.cfg.SchedulePeriod > 0 {
		e.nextTick = first
		e.events.Push(first, evTick, nil)
	}
}

// run drives the event loop until no events remain or stop returns true
// (used by nested simulations to halt once the target job starts). It
// returns with no fair world in flight, so Run, RunStream and
// Live.Drain hand back final fair starts.
func (e *engine) run(stop func() bool) error {
	if e.cfg.Fairness && !e.sub {
		fairRuns.Add(1) // splits the in-flight cap (see maxInFlight)
		defer fairRuns.Add(-1)
	}
	defer e.fair.joinAll()
	e.processed = 0
	for {
		if stop != nil && stop() {
			return nil
		}
		if e.stream != nil {
			if err := e.pumpArrivals(); err != nil {
				return err
			}
		}
		ok, err := e.step()
		if !ok || err != nil {
			return err
		}
	}
}

// step advances the engine through the next pending instant: it drains
// every event at that instant, runs the fairness oracle and checkpoint
// hooks, executes (or elides) one scheduling pass, and samples the
// collector — one iteration of the batch event loop. It returns false
// with the event queue empty. Live advancing (the amjsd daemon) is built on
// step so that interactive sessions replay the exact batch semantics.
func (e *engine) step() (bool, error) {
	next, ok := e.events.Peek()
	if !ok {
		return false, nil
	}
	e.now = next.Time
	checkpoint := false
	tick := false
	e.arrived = e.arrived[:0]
	e.endedNow = false

	// Drain every event at this instant before scheduling once.
	for {
		it, ok := e.events.Peek()
		if !ok || it.Time != e.now {
			break
		}
		it, _ = e.events.Pop()
		e.processed++
		if e.processed > maxEvents {
			return false, fmt.Errorf("sim: exceeded %d events at t=%v (scheduler livelock?)", maxEvents, e.now)
		}
		switch it.Kind {
		case evEnd:
			e.finish(it.Payload)
			e.endedNow = true
			if e.cfg.Trace != nil {
				e.trace("end job=%d", it.Payload.ID)
			}
			if e.rec != nil {
				e.rec.End(e.now, it.Payload)
			}
		case evArrive:
			j := it.Payload
			if j.State == job.Cancelled {
				break // cancelled between submission and arrival (Live)
			}
			j.State = job.Queued
			e.queue.push(j)
			e.arrived = append(e.arrived, j)
			e.dirty = true
			if e.cfg.Trace != nil {
				e.trace("arrive job=%d nodes=%d wall=%v", j.ID, j.Nodes, j.Walltime)
			}
			if e.rec != nil {
				e.rec.Arrive(e.now, j)
			}
			if e.notify != nil {
				e.notify(e.now, j, job.Queued)
			}
		case evTick:
			tick = true
		case evCheckpoint:
			// The checkpoint may retune the policy, so the next due
			// pass can never be elided. Nested fairness worlds are the
			// exception: their policy is frozen (no retune ever fires),
			// so a checkpoint there changes nothing and the usual
			// elision condition applies to the pass it would force —
			// the naive reference executes that pass and proves it a
			// no-op; eliding it preserves the schedule bit for bit.
			checkpoint = true
			if !e.sub {
				e.dirty = true
			}
		}
	}

	// Fair start times are defined at submission, before this instant's
	// scheduling pass: the oracle takes the arrival batch and defers it
	// (see fairOracle); the reference resolves it here, a job at a time.
	if e.cfg.Fairness && !e.sub && len(e.arrived) > 0 {
		if e.cfg.naiveOracle {
			e.fairStartNaive(e.arrived)
		} else {
			e.fair.arrive(e.arrived)
		}
	}

	if checkpoint && !e.sub {
		bf, w, hasTunables := e.tunables()
		e.collector.OnCheckpoint(e.now, e.queue.jobs(), bf, w, hasTunables)
		if e.cfg.Trace != nil {
			if hasTunables {
				e.trace("checkpoint queue=%d bf=%g w=%d", e.queue.len(), bf, w)
			} else {
				e.trace("checkpoint queue=%d", e.queue.len())
			}
		}
		// The validity recorder samples the monitors' inputs before the
		// retune, then the tunables on both sides of it — the raw facts
		// the oracle replays the tuning rules against. The metric
		// cursors are idempotent at a fixed instant, so the extra reads
		// leave the Tuner's own queries bit-identical.
		var ckQD float64
		var ckInputs [][2]float64
		if e.rec != nil {
			ckQD = e.QueueDepthMinutes()
			for _, r := range e.rec.Rules() {
				switch r.Kind {
				case invariant.RuleQueueDepth:
					ckInputs = append(ckInputs, [2]float64{ckQD, 0})
				case invariant.RuleUtilTrend:
					ckInputs = append(ckInputs, [2]float64{
						e.UtilWindowAvg(r.Short), e.UtilWindowAvg(r.Long)})
				}
			}
		}
		if ad, ok := e.scheduler.(sched.Adaptive); ok {
			e.fair.beforeRetune() // deferred fair worlds keep the policy as it is now
			ad.Checkpoint(e, e)
		}
		if e.rec != nil {
			bfAfter, wAfter, _ := e.tunables()
			e.rec.Checkpoint(e.now, ckQD, ckInputs, bf, w, bfAfter, wAfter, hasTunables)
		}
		e.collector.Compact(e.now) // no-op outside lean streaming runs
	}
	if checkpoint && (e.events.Len() > 0 || e.queue.len() > 0 || len(e.running) > 0 || e.streamLive() || e.keepGrids) {
		// Re-armed for nested oracle runs too: their fair worlds mirror
		// the main engine's checkpoint-forced scheduling passes (without
		// the retune or monitor side effects, which stay !sub above).
		e.nextCheck = e.now.Add(e.cfg.CheckInterval)
		e.events.Push(e.nextCheck, evCheckpoint, nil)
	}

	// Event-driven mode schedules after every batch; periodic mode
	// only on ticks (and at checkpoints, where the policy may have
	// just been retuned). A due pass is elided when it is provably a
	// no-op: nothing schedule-relevant happened since the last
	// executed pass (so the policy would see the exact state it
	// already resolved, modulo the clock) and the cached δ says no
	// queued job fits the idle nodes (so no start — and no change to
	// reservation state, which only moves when a grant is possible
	// or the state it was computed from changes). Idle and drain
	// stretches in periodic mode then cost O(1) per tick.
	ran := false
	if e.cfg.SchedulePeriod <= 0 || tick || checkpoint {
		if e.cfg.disableElision || e.dirty || (e.lastDelta && !e.lastQuiet) {
			// The oracle brackets the pass: with deferred batches
			// outstanding it snapshots the pre-pass state, and afterwards
			// forks the fair world of each batch the pass diverged from.
			e.fair.beginPass()
			e.scheduler.Schedule(e)
			ran = true
			e.fair.endPass(checkpoint)
			e.lastQuiet = passReport(e.scheduler).Quiescent
		}
	}
	// δ is recomputed whenever the state could differ from the value
	// cached at the last executed pass; an elided pass keeps both the
	// state and the cache, byte-identically.
	if ran || e.dirty {
		e.lastDelta = e.queuedJobFitsIdle()
	}
	if ran {
		e.dirty = false
		if e.rec != nil {
			// Sample the policy's protected reservation after every
			// executed pass; the recorder turns changes into events for
			// the never-delayed audit.
			if rh, ok := e.scheduler.(invariant.ReservationHolder); ok {
				if id, ts, held := rh.ProtectedReservation(); held {
					e.rec.Reserve(e.now, id, ts)
				}
			}
		}
	}

	// A tick with a zero period is the one-shot fork-instant pass a
	// nested event-mode fair world seeds; it must not re-arm.
	if tick && e.cfg.SchedulePeriod > 0 &&
		(e.events.Len() > 0 || e.queue.len() > 0 || len(e.running) > 0 || e.streamLive() || e.keepGrids) {
		next := e.now.Add(e.cfg.SchedulePeriod)
		if e.sub && !e.cfg.disableElision && !e.dirty && (!e.lastDelta || e.lastQuiet) {
			// Nested runs have no collector to sample, so a stretch
			// of would-be-elided ticks is pure dead time: jump to the
			// first tick on the same phase grid at or after the next
			// pending event.
			if it, ok := e.events.Peek(); ok && it.Time > next {
				k := (it.Time.Sub(next) + e.cfg.SchedulePeriod - 1) / e.cfg.SchedulePeriod
				next = next.Add(k * e.cfg.SchedulePeriod)
			}
		}
		e.events.Push(next, evTick, nil)
		e.nextTick = next
	}

	if !e.sub {
		e.collector.OnScheduleStep(e.now, e.machine.BusyNodes(), e.machine.UsedNodes(), e.lastDelta)
	}
	if e.cfg.Paranoid {
		e.checkInvariants()
	}
	return true, nil
}

// cancelQueued withdraws a waiting job from the system: it leaves the
// queue, and the next due scheduling pass can no longer be elided — a
// reservation the job held may have blocked backfill even though no
// nodes change state. That pass drops the reservation itself: a policy
// with a persistent protected reservation (MetricAware) re-commits it
// only for a holder still in the queue, and the reservation is read
// only after an executed pass.
func (e *engine) cancelQueued(j *job.Job) {
	e.fair.cancelling(j) // while j is still queued, as the worlds it diverges have it
	j.State = job.Cancelled
	e.queue.remove(j)
	e.dirty = true
	if e.cfg.Trace != nil {
		e.trace("cancel job=%d", j.ID)
	}
	if e.rec != nil {
		e.rec.Cancel(e.now, j)
	}
	if e.notify != nil {
		e.notify(e.now, j, job.Cancelled)
	}
}

// checkInvariants asserts the engine's structural invariants via the
// extracted checker in internal/invariant; any violation is a simulator
// bug, not an input error.
func (e *engine) checkInvariants() {
	e.orderBuf = e.orderBuf[:0]
	for r := range e.running {
		e.orderBuf = append(e.orderBuf, r)
	}
	if err := invariant.CheckEngineState(e.machine, e.now, e.queue.jobs(), e.orderBuf); err != nil {
		panic(err.Error())
	}
}

// trace emits a debug line when tracing is enabled (never in nested
// fairness simulations).
func (e *engine) trace(format string, args ...any) {
	if e.cfg.Trace == nil || e.sub {
		return
	}
	fmt.Fprintf(e.cfg.Trace, "%10d %s\n", int64(e.now), fmt.Sprintf(format, args...))
}

// passReport reads the scheduler's report on the pass it just ran. A
// scheduler that makes none gets the conservative reading of every
// field: unbounded, not quiescent, assumed to have mutated state.
func passReport(s sched.Scheduler) sched.PassReport {
	if r, ok := s.(sched.PassReporter); ok {
		return r.LastPass()
	}
	return sched.PassReport{Mutated: true}
}

// tunables extracts the scheduler's current policy parameters when it
// exposes them (the metric-aware scheduler and its tuner do).
func (e *engine) tunables() (float64, int, bool) {
	type tunabled interface{ Tunables() (float64, int) }
	if t, ok := e.scheduler.(tunabled); ok {
		bf, w := t.Tunables()
		return bf, w, true
	}
	return 0, 0, false
}

// queuedJobFitsIdle reports whether some waiting job requests no more
// than the idle node count — Eq. 4's δ condition.
func (e *engine) queuedJobFitsIdle() bool {
	idle := e.machine.IdleNodes()
	for _, j := range e.queue.jobs() {
		if j.Nodes <= idle {
			return true
		}
	}
	return false
}

// finish completes a running job.
func (e *engine) finish(j *job.Job) {
	alloc, ok := e.running[j]
	if !ok {
		panic(fmt.Sprintf("sim: end event for job %d which is not running", j.ID))
	}
	e.machine.Release(alloc, e.now)
	e.machineGen++
	delete(e.running, j)
	e.dirty = true
	j.End = e.now
	if j.Runtime > j.Walltime {
		j.State = job.Killed
	} else {
		j.State = job.Finished
	}
	if !e.sub {
		e.collector.OnJobEnd(j)
		if e.notify != nil {
			e.notify(e.now, j, j.State)
		}
	}
	if st := e.stream; st != nil {
		if j.End > st.lastEnd {
			st.lastEnd = j.End
		}
		if st.sink != nil {
			st.sink(j)
		}
	}
}

// Now implements sched.Env.
func (e *engine) Now() units.Time { return e.now }

// Machine implements sched.Env.
func (e *engine) Machine() machine.Machine { return e.machine }

// Queue implements sched.Env. The returned slice is a shared read-only
// view (see sched.Env: callers copy before reordering and must not
// retain it across engine mutations); handing it out without copying
// keeps the per-pass cost allocation-free.
func (e *engine) Queue() []*job.Job { return e.queue.jobs() }

// Start implements sched.Env.
func (e *engine) Start(j *job.Job) bool {
	a, ok := e.machine.TryStart(j.ID, j.Nodes, e.now, j.Walltime)
	if !ok {
		return false
	}
	e.begin(j, a)
	return true
}

// StartAt implements sched.Env.
func (e *engine) StartAt(j *job.Job, hint int) bool {
	a, ok := e.machine.TryStartAt(j.ID, j.Nodes, e.now, j.Walltime, hint)
	if !ok {
		return false
	}
	e.begin(j, a)
	return true
}

func (e *engine) begin(j *job.Job, a machine.Alloc) {
	if j.State != job.Queued {
		panic(fmt.Sprintf("sim: starting job %d in state %v", j.ID, j.State))
	}
	j.State = job.Running
	j.Start = e.now
	e.running[j] = a
	e.machineGen++
	e.queue.remove(j)
	e.dirty = true
	e.events.Push(e.now.Add(effectiveRuntime(j)), evEnd, j)
	if e.cfg.Trace != nil {
		e.trace("start job=%d nodes=%d wait=%v", j.ID, j.Nodes, j.Wait())
	}

	if e.sub {
		return
	}
	if e.notify != nil {
		e.notify(e.now, j, job.Running)
	}
	if !e.fair.deferStart(j, a) {
		e.beginEffects(j, a)
	}
}

// effectiveRuntime is how long a started job holds its nodes: its
// runtime, cut short at the walltime limit, where it is killed.
func effectiveRuntime(j *job.Job) units.Duration {
	return min(j.Runtime, j.Walltime)
}

// beginEffects performs the accounting and reporting side of a start:
// the free-path fair-start resolution of a still-deferred job, the
// validity trace's start record, and the collector update. During a
// deferring pass these run at the oracle's endPass, after any diverged
// batch has forked, and a fair world still in flight is joined before
// its value is read, so the values recorded here are final.
func (e *engine) beginEffects(j *job.Job, a machine.Alloc) {
	if e.fair.startedGlued(j) {
		e.fairStarts[j.ID] = e.now // the free path: the fair start is the actual start
	}
	fair, known := e.fairStarts[j.ID]
	for known && fair == fairPending {
		// The job's fair world is still in flight: join worlds, oldest
		// first, until it has landed.
		e.fair.joinOldest()
		fair = e.fairStarts[j.ID]
	}
	if e.rec != nil {
		// The validity trace records the start's true footprint:
		// the occupied midplanes and the whole-partition node count
		// (internal fragmentation included) on machines that expose
		// placement, the bare request on those that don't.
		blockNodes := j.Nodes
		var mps []int
		if fp, ok := e.machine.(machine.Footprinter); ok {
			if u, per, ok := fp.AllocUnits(a); ok {
				mps = u
				blockNodes = len(u) * per
			}
		}
		e.rec.Start(e.now, j, blockNodes, mps, fair, known && e.cfg.Fairness)
	}
	e.collector.OnJobStart(j, fair, e.cfg.FairnessTolerance, known && e.cfg.Fairness)
	if e.stream != nil && e.stream.sink != nil {
		// Sink-driven runs keep the oracle map O(live jobs): the
		// entry has served its purpose once the job starts.
		delete(e.fairStarts, j.ID)
	}
}

// QueueDepthMinutes implements sched.MetricsView.
func (e *engine) QueueDepthMinutes() float64 {
	return metrics.QueueDepthMinutes(e.now, e.queue.jobs())
}

// UtilWindowAvg implements sched.MetricsView.
func (e *engine) UtilWindowAvg(w units.Duration) float64 {
	return e.collector.UtilWindowAvg(e.now, w)
}
