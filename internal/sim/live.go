// Live is the interactive face of the simulation engine: the same
// event loop Run and RunStream drive, exposed as an open session into
// which a caller injects submissions one at a time, cancels waiting
// jobs, and advances virtual time incrementally. It is the engine the
// amjsd daemon hosts behind its HTTP API.
//
// Equivalence with the batch engine is by construction, not
// reimplementation: Live shares engine.step with Run, and Submit
// admits through engine.admit, the step Run and RunStream's pump use,
// before the engine processes the submit instant (every arrival at an
// instant T is in the event queue before T is drained, in submission
// order). A session of Submit calls followed by Drain therefore yields
// the bit-identical schedule Run produces on the collected trace — the
// property TestLiveEquivalence pins.
package sim

import (
	"errors"
	"fmt"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/metrics"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// ErrRejected marks a submission whose node request can never be
// satisfied by the machine (see engine.admit).
var ErrRejected = errors.New("sim: job can never fit the machine")

// Live is one open scheduling session. It is not safe for concurrent
// use; callers (the daemon) serialize access.
type Live struct {
	e         *engine
	slots     job.IDTable[int32] // accepted jobs by ID: 1 + the job's slot in the engine's table
	cancelled int

	// The availability plan PredictStart answers from, built from the
	// machine at (planAt, planGen): one plan serves every prediction
	// until the clock moves or a job starts or ends. It is only read —
	// never committed into, never handed back to a plan pool.
	plan    machine.Plan
	planAt  units.Time
	planGen uint64
}

// Notify observes one job state transition as the engine processes it.
// Called synchronously from inside the event loop (so under whatever
// lock serializes the session); implementations must be fast and must
// not call back into the session. The job pointer is the engine's live
// copy — read the fields needed and return, do not retain it.
type Notify func(t units.Time, j *job.Job, s job.State)

// SetNotify installs a transition observer on the session: every
// arrival (Queued), start (Running), completion (Finished/Killed), and
// cancellation (Cancelled) is reported in engine processing order —
// the authoritative event order of the schedule. Nested fairness
// worlds never notify. Pass nil to detach.
func (l *Live) SetNotify(fn Notify) { l.e.notify = fn }

// NewLive opens a live session under the configuration. Config fields
// have the same meaning as for Run; lean switches the collector to
// streaming aggregation (see Collector.SetLean) so an arbitrarily
// long-lived session keeps bounded metric state — leave it off when the
// full checkpoint series are wanted (tests, short replays).
func NewLive(cfg Config, lean bool) (*Live, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.keepGrids = true
	if lean {
		e.collector.SetLean(leanRetention)
	}
	return &Live{e: e}, nil
}

// Submit accepts a job into the session. The job is copied once it is
// admitted; the caller's copy is not mutated. It must carry a unique ID
// in 1..job.MaxID and a submit time no earlier than the last
// submission's and no earlier than the last processed instant — the
// nondecreasing-submit contract every trace source already obeys.
// Submit enqueues the arrival, then advances the engine through every
// instant strictly before the job's submit time; the instant itself is
// processed by a later Submit, AdvanceTo, or Drain.
//
// The returned job is the engine's live copy: its State/Start/End
// fields update as the session progresses. ErrRejected reports a
// request that can never fit the machine.
func (l *Live) Submit(src *job.Job) (*job.Job, error) {
	if src.ID > job.MaxID {
		return nil, fmt.Errorf("sim: job ID %d above %d", src.ID, job.MaxID)
	}
	if l.slots.Get(src.ID) != 0 {
		return nil, fmt.Errorf("sim: duplicate job ID %d", src.ID)
	}
	j, err := l.e.admit(src)
	if err != nil {
		return nil, err
	}
	l.slots.Set(j.ID, j.Slot()+1)
	if err := l.advance(j.Submit, false); err != nil {
		return nil, err
	}
	return j, nil
}

// Cancel withdraws a job that has not started. It returns false when
// the ID is unknown or the job already started (running or completed
// jobs cannot be cancelled). A job cancelled between submission and its
// arrival instant never enters the queue at all.
func (l *Live) Cancel(id int) bool {
	j, ok := l.Job(id)
	if !ok {
		return false
	}
	switch j.State {
	case job.Submitted:
		// Arrival still pending in the event queue; the arrival handler drops
		// cancelled jobs, so flagging the state is enough.
		j.State = job.Cancelled
		if l.e.notify != nil {
			l.e.notify(l.e.now, j, job.Cancelled)
		}
	case job.Queued:
		l.e.cancelQueued(j)
	default:
		return false
	}
	l.cancelled++
	return true
}

// AdvanceTo processes every pending instant at or before t — the
// wall-clock ticker's entry point. Virtual time beyond the last event
// does not itself move the engine clock; Now still reports the last
// processed instant.
func (l *Live) AdvanceTo(t units.Time) error {
	return l.advance(t, true)
}

// advance processes pending instants up to t, inclusively or not.
func (l *Live) advance(t units.Time, inclusive bool) error {
	if l.e.cfg.Fairness {
		fairRuns.Add(1) // splits the in-flight cap (see maxInFlight)
		defer fairRuns.Add(-1)
	}
	l.e.processed = 0
	for {
		it, ok := l.e.events.Peek()
		if !ok || it.Time > t || (!inclusive && it.Time == t) {
			return nil
		}
		if _, err := l.e.step(); err != nil {
			return err
		}
	}
}

// Drain runs the session to quiescence: every pending arrival,
// completion, tick, and checkpoint is processed and the monitoring
// grids wind down exactly as a batch run's do (keepGrids is suspended,
// so the final checkpoint after the last completion fires and does not
// re-arm — Run's termination, byte for byte). This is the speedup=∞
// semantics of the daemon: submit a whole trace, then Drain, and the
// resulting schedule is identical to Run's. Drain returns with no fair
// world in flight. The session remains usable afterwards; a later
// Submit re-anchors the grids.
func (l *Live) Drain() error {
	l.e.keepGrids = false
	err := l.e.run(nil)
	l.e.keepGrids = true
	if err != nil {
		return err
	}
	// Paranoid sessions re-audit the cumulative validity trace at every
	// quiescent point: the session's whole history so far must replay
	// clean, not just the slice since the previous Drain.
	return l.e.verifySchedule()
}

// Now reports the last processed instant of virtual time.
func (l *Live) Now() units.Time { return l.e.now }

// Job looks up an accepted job by ID. The returned job is the engine's
// live copy; treat it as read-only.
func (l *Live) Job(id int) (*job.Job, bool) {
	if s := l.slots.Get(id); s != 0 {
		return l.e.table.At(s - 1), true
	}
	return nil, false
}

// Each calls fn on every accepted job in submission order. The jobs are
// the engine's live copies; treat them as read-only.
func (l *Live) Each(fn func(j *job.Job)) {
	for s := range l.e.table.Len() {
		fn(l.e.table.At(int32(s)))
	}
}

// Queue returns the waiting jobs in arrival order as a fresh copy.
func (l *Live) Queue() []*job.Job {
	return append([]*job.Job(nil), l.e.queue.jobs()...)
}

// QueueLen reports the number of waiting jobs.
func (l *Live) QueueLen() int { return l.e.queue.len() }

// RunningLen reports the number of executing jobs.
func (l *Live) RunningLen() int { return l.e.running.len() }

// Machine exposes the session's machine for occupancy snapshots.
// Callers must treat it as read-only: starts and releases belong to the
// engine alone.
func (l *Live) Machine() machine.Machine { return l.e.machine }

// Collector exposes the session's metrics collector (read-only).
func (l *Live) Collector() *metrics.Collector { return l.e.collector }

// QueueDepthMinutes reports the paper's queue-depth metric at the
// current instant.
func (l *Live) QueueDepthMinutes() float64 {
	return metrics.QueueDepthMinutes(l.e.now, l.e.queue.jobs())
}

// Tunables reports the scheduler's current BF/W when it exposes them.
func (l *Live) Tunables() (bf float64, w int, ok bool) {
	bf, w, ok = l.e.tunables()
	return
}

// WhatIfStatus snapshots the hosted scheduler's what-if planner, when
// the policy carries one. Note NewLive clones the configured scheduler,
// so this — not the caller's original planner — is where the session's
// decisions accrue.
func (l *Live) WhatIfStatus() (whatif.Status, bool) {
	if st := l.e.whatIfStatus(); st != nil {
		return *st, true
	}
	return whatif.Status{}, false
}

// PredictStart estimates when a job will start. For a started job it is
// the actual start; for a waiting job it is the earliest instant the
// current machine state (running jobs at their walltime bounds, no
// queued-ahead competitors) could fit it — an optimistic bound, the
// "predicted start" the job API reports next to the actual one. ok is
// false for unknown or cancelled jobs.
func (l *Live) PredictStart(id int) (units.Time, bool) {
	j, ok := l.Job(id)
	if !ok {
		return 0, false
	}
	switch j.State {
	case job.Running, job.Finished, job.Killed:
		return j.Start, true
	case job.Cancelled:
		return 0, false
	}
	if l.plan == nil || l.planAt != l.e.now || l.planGen != l.e.machineGen {
		l.plan, l.planAt, l.planGen = l.e.machine.Plan(l.e.now), l.e.now, l.e.machineGen
	}
	ts, _ := l.plan.EarliestStart(j.Nodes, j.Walltime)
	if ts == units.Forever {
		return 0, false
	}
	if ts < j.Submit {
		ts = j.Submit
	}
	return ts, true
}

// Accepted, Rejected, and Cancelled report the session's job census.
func (l *Live) Accepted() int  { return l.e.in.accepted }
func (l *Live) Rejected() int  { return l.e.in.rejected }
func (l *Live) Cancelled() int { return l.cancelled }

// PolicyName reports the hosted scheduler's configured name.
func (l *Live) PolicyName() string { return l.e.scheduler.Name() }
