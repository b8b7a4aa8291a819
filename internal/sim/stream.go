// Job intake: RunStream drives the engine from a lazily-consumed job
// source instead of a materialized slice, so a year-long trace needs
// memory proportional to the jobs in flight, not the trace. Run replays
// its trace through the same pump, and Live.Submit through the same
// admission step.
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

// traceSource is Run's JobSource: a trace already in submit order.
type traceSource []*job.Job

func (s *traceSource) Next() (*job.Job, error) {
	if len(*s) == 0 {
		return nil, io.EOF
	}
	j := (*s)[0]
	*s = (*s)[1:]
	return j, nil
}

// leanRetention is the step-series history a streaming collector keeps:
// the widest rolling utilization window the checkpoints query (24 h)
// plus an interval of slack so the compaction cutoff never clips a
// window endpoint.
const leanRetention = 24*units.Hour + units.Hour

// streamState is the engine's view of an in-progress Run or RunStream.
type streamState struct {
	src     JobSource
	sink    func(*job.Job)
	drained bool       // src has returned io.EOF
	lastEnd units.Time // latest completion, for Makespan
}

// intake is the engine's admission census (see admit).
type intake struct {
	lastSubmit units.Time // the latest accepted submission
	first      units.Time // the first accepted submission
	accepted   int
	rejected   int
}

// admit is the one way a job enters the engine, for Run and RunStream
// (through pumpArrivals) and Live.Submit alike. It validates src, holds
// it to the nondecreasing-submit contract (against the latest accepted
// job: a rejected one never reaches the event queue) and the processed
// horizon, and screens it against the machine: a job that can never
// fit is counted and reported as ErrRejected. An admitted job is
// copied into a row of the engine's job table, marked Submitted and
// enqueued to arrive at its submit time; the
// checkpoint grid and, in periodic mode, the tick grid are anchored at
// it when nothing else is pending (the first job, or the first after a
// Live.Drain wound them down).
//
// Run, a sink-less RunStream and Live keep every row, in admission
// order; a sink-driven stream recycles a row once its job completes
// (see finish), so its table holds the jobs in flight. A Run or a
// sink-less RunStream keeps a rejected job's row too, in its admission
// place, for Result.Rejected.
func (e *engine) admit(src *job.Job) (*job.Job, error) {
	if err := src.Validate(); err != nil {
		return nil, fmt.Errorf("sim: submitted job: %w", err)
	}
	if src.Submit < e.in.lastSubmit {
		return nil, fmt.Errorf("sim: job %d submits at %v, before the previous submission at %v",
			src.ID, src.Submit, e.in.lastSubmit)
	}
	if src.Submit < e.now {
		return nil, fmt.Errorf("sim: job %d submits at %v, before the processed horizon %v",
			src.ID, src.Submit, e.now)
	}
	sinkDriven := e.stream != nil && e.stream.sink != nil
	if !e.machine.CanFitEver(src.Nodes) {
		e.in.rejected++
		if e.stream != nil && !sinkDriven {
			e.table.Add(src).State = job.Submitted
		}
		return nil, ErrRejected
	}
	j := e.table.Add(src)
	j.State = job.Submitted
	if e.events.Len() == 0 {
		e.nextCheck = j.Submit.Add(e.cfg.CheckInterval)
		e.events.Push(e.nextCheck, evCheckpoint, noSlot)
		if e.cfg.SchedulePeriod > 0 {
			e.nextTick = j.Submit
			e.events.Push(j.Submit, evTick, noSlot)
		}
	}
	if e.in.accepted == 0 {
		e.in.first = j.Submit
	}
	e.events.PushArrival(j.Slot())
	e.in.lastSubmit = j.Submit
	e.in.accepted++
	return j, nil
}

// RunStream simulates a streamed workload under the configuration. It
// produces the bit-identical schedule Run produces on the collected
// trace; what changes is the memory profile.
//
// When sink is nil, every job is retained and the Result matches Run's.
// When sink is non-nil the engine runs in O(live jobs) memory: each job
// is handed to sink as it completes, as a copy the sink may keep (the
// engine reuses the job's row; rejected jobs are counted but not
// delivered), Result.Jobs and Result.Rejected stay nil, utilization
// history is compacted behind the 24-hour rolling window, the
// checkpoint time series stay empty, and Result.FairStarts holds only
// jobs that have not yet started; the per-job wait and slowdown
// aggregates are the ones every run keeps. sink must not retain the
// engine's clock — it is called mid-simulation.
func RunStream(cfg Config, src JobSource, sink func(*job.Job)) (*Result, error) {
	e, err := newStreamEngine(cfg, src, sink)
	if err != nil {
		return nil, err
	}
	if err := e.run(nil); err != nil {
		return nil, err
	}
	return e.result(nil)
}

// newStreamEngine builds RunStream's engine, ready to run.
func newStreamEngine(cfg Config, src JobSource, sink func(*job.Job)) (*engine, error) {
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
	return e, nil
}

// result checks that a Run or RunStream completed every accepted job,
// audits a Paranoid run's schedule, and builds the Result. Without a
// sink, Result.Jobs and Result.Rejected list the table's rows in
// admission (slot) order, or, given perm, the k-th row at position
// perm[k].
func (e *engine) result(perm []int) (*Result, error) {
	if done := e.collector.FinishedCount() + e.collector.KilledCount(); done != e.in.accepted {
		return nil, fmt.Errorf("sim: %d of %d accepted jobs completed", done, e.in.accepted)
	}
	if err := e.verifySchedule(); err != nil {
		return nil, err
	}
	res := &Result{
		Policy:        e.scheduler.Name(),
		Metrics:       e.collector,
		FairStarts:    e.fairStarts,
		AcceptedCount: e.in.accepted,
		RejectedCount: e.in.rejected,
		WhatIf:        e.whatIfStatus(),
	}
	if e.in.accepted > 0 {
		res.Makespan = e.stream.lastEnd.Sub(e.in.first)
	}
	if e.stream.sink != nil || e.table.Len() == 0 {
		return res, nil
	}
	all := make([]*job.Job, e.table.Len())
	for k := range all {
		at := k
		if perm != nil {
			at = perm[k]
		}
		all[at] = e.table.At(int32(k))
	}
	// Every accepted job completed, so a row still Submitted is a
	// rejected one. The accepted rows compact into all in place.
	res.Jobs = all[:0]
	for _, j := range all {
		if j.State == job.Submitted {
			res.Rejected = append(res.Rejected, j)
		} else {
			res.Jobs = append(res.Jobs, j)
		}
	}
	return res, nil
}

// pumpArrivals admits source jobs until the latest accepted arrival
// lies beyond the next pending event. Called before each event-loop
// iteration, it guarantees that when an instant T is drained, every
// source arrival at T is already in the event queue, in source order,
// while it admits at most one job past T — the schedule is the one
// pushing the whole trace up front would give, since the event queue
// orders same-instant items by kind before insertion sequence, so
// arrivals only need to beat the drain of their own instant, not the
// pushes of earlier end/tick events. A rejected job never enters the
// event queue, so reading on past it keeps the grids from staying armed
// for work that never arrives.
func (e *engine) pumpArrivals() error {
	st := e.stream
	for !st.drained {
		if it, ok := e.events.Peek(); ok && e.in.lastSubmit > it.Time {
			return nil
		}
		j, err := st.src.Next()
		if err == io.EOF {
			st.drained = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("sim: job source: %w", err)
		}
		if _, err := e.admit(j); err != nil && err != ErrRejected {
			return err
		}
	}
	return nil
}

// gridsLive reports whether the checkpoint and tick grids re-arm: work
// is pending or running, the job source may still deliver, or a Live
// session keeps them armed across idle stretches.
func (e *engine) gridsLive() bool {
	return e.events.Len() > 0 || e.queue.len() > 0 || e.running.len() > 0 ||
		(e.stream != nil && !e.stream.drained) || e.keepGrids
}
