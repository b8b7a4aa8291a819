// Streaming replay: RunStream drives the engine from a lazily-consumed
// job source instead of a materialized slice, so a year-long trace
// needs memory proportional to the jobs in flight, not the trace.
package sim

import (
	"errors"
	"fmt"
	"io"

	"amjs/internal/job"
	"amjs/internal/units"
)

// JobSource delivers a trace one job at a time in nondecreasing submit
// order, returning (nil, io.EOF) at the end. workload.Source satisfies
// it; the local interface keeps sim independent of the workload
// package.
type JobSource interface {
	Next() (*job.Job, error)
}

// leanRetention is the step-series history a streaming collector keeps:
// the widest rolling utilization window the checkpoints query (24 h)
// plus an interval of slack so the compaction cutoff never clips a
// window endpoint.
const leanRetention = 24*units.Hour + units.Hour

// streamState is the engine's view of an in-progress streaming replay.
type streamState struct {
	src  JobSource
	sink func(*job.Job)

	// pending is the one read-ahead job: fetched from the source but
	// not yet due for injection (its submit lies beyond the next event).
	pending    *job.Job
	drained    bool
	lastSubmit units.Time // latest submit fetched; enforces source order
	haveAny    bool

	firstSubmit units.Time
	haveFirst   bool
	lastEnd     units.Time

	accepted int
	rejected int

	// Retained only when no sink is given (the caller then gets the
	// materialized Result.Jobs exactly as Run produces).
	jobs         []*job.Job
	rejectedJobs []*job.Job
}

// RunStream simulates a streamed workload under the configuration. It
// produces the bit-identical schedule Run produces on the collected
// trace; what changes is the memory profile.
//
// When sink is nil, every job is retained and the Result matches Run's.
// When sink is non-nil the engine runs in O(live jobs) memory: each job
// is handed to sink as it completes (rejected jobs are counted but not
// delivered), Result.Jobs and Result.Rejected stay nil, per-job metric
// samples fold into running aggregates (WaitSummary and SlowdownSummary
// then report N/Mean/Max only), utilization history is compacted behind
// the 24-hour rolling window, the checkpoint time series stay empty,
// and Result.FairStarts holds only jobs that have not yet started. sink
// must not retain the engine's clock — it is called mid-simulation.
func RunStream(cfg Config, src JobSource, sink func(*job.Job)) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("sim: no job source configured")
	}
	e.stream = &streamState{src: src, sink: sink}
	if sink != nil {
		e.collector.SetLean(leanRetention)
	}

	if err := e.run(nil); err != nil {
		return nil, err
	}

	st := e.stream
	if sink == nil {
		for _, j := range st.jobs {
			if j.State != job.Finished && j.State != job.Killed {
				return nil, fmt.Errorf("sim: job %d never completed (state %v)", j.ID, j.State)
			}
		}
	} else if done := e.collector.FinishedCount() + e.collector.KilledCount(); done != st.accepted {
		return nil, fmt.Errorf("sim: %d of %d accepted jobs completed", done, st.accepted)
	}
	if err := e.verifySchedule(); err != nil {
		return nil, err
	}

	res := &Result{
		Policy:        e.scheduler.Name(),
		Jobs:          st.jobs,
		Rejected:      st.rejectedJobs,
		Metrics:       e.collector,
		FairStarts:    e.fairStarts,
		AcceptedCount: st.accepted,
		RejectedCount: st.rejected,
		WhatIf:        e.whatIfStatus(),
	}
	if st.accepted > 0 {
		res.Makespan = st.lastEnd.Sub(st.firstSubmit)
	}
	return res, nil
}

// pumpArrivals injects source jobs into the event queue until the next
// unfetched job provably submits after the next pending event. Called
// before each event-loop iteration, it guarantees that when an instant
// T is drained, every source arrival at T is already in the event queue, in
// source order — which makes the schedule identical to the batch
// engine's, where all arrivals are pushed up front: the event queue
// orders same-instant items by kind before insertion sequence, so
// arrivals only need to beat the drain of their own instant, not the
// pushes of earlier end/tick events.
func (e *engine) pumpArrivals() error {
	st := e.stream
	for !st.drained {
		if st.pending == nil {
			j, err := st.src.Next()
			if err == io.EOF {
				st.drained = true
				return nil
			}
			if err != nil {
				return fmt.Errorf("sim: job source: %w", err)
			}
			if err := j.Validate(); err != nil {
				return fmt.Errorf("sim: streamed job %d: %w", j.ID, err)
			}
			if st.haveAny && j.Submit < st.lastSubmit {
				return fmt.Errorf("sim: job source out of order: job %d submits at %v after %v",
					j.ID, j.Submit, st.lastSubmit)
			}
			st.lastSubmit, st.haveAny = j.Submit, true
			// Rejection is time-invariant (CanFitEver ignores the
			// clock), so decide it at read time: a doomed job must
			// never sit in pending, where streamLive would keep the
			// checkpoint grid armed for work that is never injected —
			// the batch engine, which rejects everything up front,
			// would have let the grid lapse.
			if !e.machine.CanFitEver(j.Nodes) {
				jc := j.Clone()
				jc.State = job.Submitted
				st.rejected++
				if st.sink == nil {
					st.rejectedJobs = append(st.rejectedJobs, jc)
				}
				continue
			}
			st.pending = j
		}
		// Hold the pending job back while an earlier event exists; with
		// an empty event queue it must be injected or the simulation would end
		// with the trace unfinished.
		if it, ok := e.events.Peek(); ok && st.pending.Submit > it.Time {
			return nil
		}
		j := st.pending.Clone()
		st.pending = nil
		j.State = job.Submitted
		st.accepted++
		if st.sink == nil {
			st.jobs = append(st.jobs, j)
		}
		if !st.haveFirst {
			st.haveFirst = true
			st.firstSubmit = j.Submit
			e.anchorGrids(j.Submit) // as the batch engine does once up front
		}
		e.events.PushArrival(j)
	}
	return nil
}

// streamLive reports whether the job source may still deliver work —
// the streaming analogue of "the event queue still holds arrivals",
// which keeps the checkpoint and tick grids armed across arrival gaps
// exactly as the batch engine's pre-pushed arrivals do.
func (e *engine) streamLive() bool {
	return e.stream != nil && (!e.stream.drained || e.stream.pending != nil)
}
