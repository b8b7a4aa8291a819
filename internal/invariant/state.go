package invariant

import (
	"cmp"
	"fmt"
	"slices"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// CheckEngineState audits the per-step structural consistency of the
// engine's (machine, queue, running-set) triple: node conservation,
// allocation census, and job-state coherence. Any error is a simulator
// bug, never an input problem — the engine panics on it when Paranoid.
//
// running is reordered in place (sorted by job ID), so the check that
// no job is both queued and running is a binary search per queued job
// and the audit allocates nothing.
func CheckEngineState(m machine.Machine, now units.Time, queued, running []*job.Job) error {
	if m.BusyNodes()+m.IdleNodes() != m.TotalNodes() {
		return fmt.Errorf("invariant: %s: node conservation violated at t=%v: busy %d + idle %d != %d",
			InvState, now, m.BusyNodes(), m.IdleNodes(), m.TotalNodes())
	}
	if m.UsedNodes() > m.BusyNodes() {
		return fmt.Errorf("invariant: %s: used nodes %d exceed busy nodes %d",
			InvState, m.UsedNodes(), m.BusyNodes())
	}
	if m.RunningCount() != len(running) {
		return fmt.Errorf("invariant: %s: machine has %d allocations, engine tracks %d",
			InvState, m.RunningCount(), len(running))
	}
	byID := func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(running, byID)
	for _, r := range running {
		if r.State != job.Running {
			return fmt.Errorf("invariant: %s: job %d in running set with state %v", InvState, r.ID, r.State)
		}
		if r.Start > now || r.Start.Add(r.Walltime) < now {
			return fmt.Errorf("invariant: %s: job %d running outside its window at t=%v", InvState, r.ID, now)
		}
	}
	for _, q := range queued {
		if _, both := slices.BinarySearchFunc(running, q, byID); both {
			return fmt.Errorf("invariant: %s: job %d both queued and running", InvState, q.ID)
		}
		if q.State != job.Queued {
			return fmt.Errorf("invariant: %s: job %d in queue with state %v", InvState, q.ID, q.State)
		}
	}
	return nil
}
