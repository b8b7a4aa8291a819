//go:build !race

package invariant

import (
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// TestCheckEngineStateAllocatesNothing pins the per-step audit at zero
// allocations: a Paranoid engine runs it after every step of every
// nested world. (Built without -race, which allocates on its own
// account.)
func TestCheckEngineStateAllocatesNothing(t *testing.T) {
	m := machine.NewFlat(1000)
	var queued, running []*job.Job
	for id := 1; id <= 200; id++ {
		j := &job.Job{ID: id, Nodes: 4, Walltime: 100, Runtime: 100, State: job.Queued}
		if id%2 == 0 {
			if _, ok := m.TryStart(j.ID, j.Nodes, 0, j.Walltime); !ok {
				t.Fatal("setup: job did not start")
			}
			j.State = job.Running
			running = append([]*job.Job{j}, running...) // descending IDs: the audit sorts
			continue
		}
		queued = append(queued, j)
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() {
		err = CheckEngineState(m, units.Time(10), queued, running)
	}); allocs != 0 {
		t.Fatalf("CheckEngineState allocates %v times per call", allocs)
	}
	if err != nil {
		t.Fatalf("consistent state flagged: %v", err)
	}
}
