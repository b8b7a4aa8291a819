// Package schedtest provides a minimal in-memory scheduling environment
// for exercising schedulers outside the full simulator. It is shared by
// the sched and core test suites.
package schedtest

import (
	"sort"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// Env is a fake sched.Env over a real machine model. Jobs started
// through it are recorded, in order, in Started.
type Env struct {
	T       units.Time
	M       machine.Machine
	Waiting []*job.Job
	Started []*job.Job
	Allocs  map[*job.Job]machine.Alloc
}

// New builds an Env at time 0 over m with the given queue.
func New(m machine.Machine, queue ...*job.Job) *Env {
	return &Env{M: m, Waiting: queue, Allocs: make(map[*job.Job]machine.Alloc)}
}

// Now implements sched.Env.
func (e *Env) Now() units.Time { return e.T }

// Machine implements sched.Env.
func (e *Env) Machine() machine.Machine { return e.M }

// Queue implements sched.Env: waiting jobs in submission order.
func (e *Env) Queue() []*job.Job {
	q := append([]*job.Job(nil), e.Waiting...)
	sort.SliceStable(q, func(i, j int) bool {
		if q[i].Submit != q[j].Submit {
			return q[i].Submit < q[j].Submit
		}
		return q[i].ID < q[j].ID
	})
	return q
}

// StartAt implements sched.Env.
func (e *Env) StartAt(j *job.Job, hint int) bool {
	a, ok := e.M.TryStartAt(j.ID, j.Nodes, e.T, j.Walltime, hint)
	if !ok {
		return false
	}
	j.State = job.Running
	j.Start = e.T
	e.Started = append(e.Started, j)
	e.Allocs[j] = a
	for i, w := range e.Waiting {
		if w == j {
			e.Waiting = append(e.Waiting[:i], e.Waiting[i+1:]...)
			break
		}
	}
	return true
}

// Finish releases a started job's allocation at time t (advancing the
// clock if t is later than now).
func (e *Env) Finish(j *job.Job, t units.Time) {
	if t > e.T {
		e.T = t
	}
	a, ok := e.Allocs[j]
	if !ok {
		panic("schedtest: finishing a job that was not started")
	}
	e.M.Release(a, t)
	delete(e.Allocs, j)
	j.State = job.Finished
	j.End = t
}

// StartedIDs returns the IDs of started jobs in start order.
func (e *Env) StartedIDs() []int {
	ids := make([]int, len(e.Started))
	for i, j := range e.Started {
		ids[i] = j.ID
	}
	return ids
}

// J is a compact job constructor for tests.
func J(id int, submit units.Time, nodes int, walltime, runtime units.Duration) *job.Job {
	return &job.Job{
		ID: id, User: "u", Submit: submit, Nodes: nodes,
		Walltime: walltime, Runtime: runtime, State: job.Queued,
	}
}
