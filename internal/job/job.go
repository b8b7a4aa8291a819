// Package job defines the parallel-job model shared by the workload
// tools, the schedulers, and the simulator.
package job

import (
	"fmt"

	"amjs/internal/units"
)

// State is a job's position in its lifecycle. It is 32 bits wide so
// that it and the engine's slot (see Table) share one word of the row.
type State int32

// Lifecycle states. A job moves Submitted → Queued → Running → Finished;
// Killed marks a job terminated at its walltime limit.
const (
	Submitted State = iota // created, not yet seen by the scheduler
	Queued                 // waiting in the scheduler's queue
	Running                // allocated and executing
	Finished               // completed within its walltime
	Killed                 // terminated at the walltime limit
	Cancelled              // withdrawn by the user before it started
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Submitted:
		return "submitted"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Killed:
		return "killed"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is a single batch job. Submit, Walltime, Runtime, Nodes and the
// identity fields are workload inputs; the remaining fields are written
// by the simulator as the job progresses.
type Job struct {
	// Identity and request, fixed at submission.
	ID       int            // unique, positive
	User     string         // submitting user
	Submit   units.Time     // submission instant
	Nodes    int            // requested node count
	Walltime units.Duration // user-requested limit (the scheduler's estimate)
	Runtime  units.Duration // actual runtime (hidden from the scheduler)

	// Simulation outcome.
	State State
	slot  int32      // the row's slot in the Table holding it (see Slot)
	Start units.Time // instant the job began executing
	End   units.Time // instant the job terminated
}

// Validate reports whether the job's static fields are usable as
// workload input.
func (j *Job) Validate() error {
	switch {
	case j.ID <= 0:
		return fmt.Errorf("job %d: non-positive ID", j.ID)
	case j.Nodes <= 0:
		return fmt.Errorf("job %d: non-positive node request %d", j.ID, j.Nodes)
	case j.Walltime <= 0:
		return fmt.Errorf("job %d: non-positive walltime %d", j.ID, j.Walltime)
	case j.Runtime <= 0:
		return fmt.Errorf("job %d: non-positive runtime %d", j.ID, j.Runtime)
	case j.Runtime > j.Walltime:
		return fmt.Errorf("job %d: runtime %v exceeds walltime %v", j.ID, j.Runtime, j.Walltime)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time", j.ID)
	}
	return nil
}

// Slot returns the job's slot in the engine Table whose row it is: the
// index the engine's queue, running set and events address it by.
// Outside a Table it is meaningless.
func (j *Job) Slot() int32 { return j.slot }

// Wait returns how long the job waited in the queue. It is only
// meaningful once the job has started.
func (j *Job) Wait() units.Duration { return j.Start.Sub(j.Submit) }

// WaitAt returns how long the job has been waiting as of now, for jobs
// still in the queue.
func (j *Job) WaitAt(now units.Time) units.Duration { return now.Sub(j.Submit) }

// Turnaround returns submission-to-completion time; meaningful once the
// job has finished.
func (j *Job) Turnaround() units.Duration { return j.End.Sub(j.Submit) }

// Slowdown returns the bounded slowdown with threshold tau:
// (wait + runtime) / max(runtime, tau).
func (j *Job) Slowdown(tau units.Duration) float64 {
	den := j.Runtime
	if den < tau {
		den = tau
	}
	if den <= 0 {
		return 0
	}
	return float64(j.Wait()+j.Runtime) / float64(den)
}

// NodeSeconds returns the node-time the job consumes when run to
// completion (Nodes × Runtime).
func (j *Job) NodeSeconds() int64 { return int64(j.Nodes) * int64(j.Runtime) }

// Clone returns an independent copy of the job.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

// String renders a compact one-line description.
func (j *Job) String() string {
	return fmt.Sprintf("job %d [%s] nodes=%d wall=%v run=%v submit=%v",
		j.ID, j.State, j.Nodes, j.Walltime, j.Runtime, j.Submit)
}

// CloneAll deep-copies a slice of jobs.
func CloneAll(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}

// ByID builds an ID-indexed map over jobs.
func ByID(jobs []*Job) map[int]*Job {
	m := make(map[int]*Job, len(jobs))
	for _, j := range jobs {
		m[j.ID] = j
	}
	return m
}
