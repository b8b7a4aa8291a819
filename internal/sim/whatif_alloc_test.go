//go:build !race

package sim

import (
	"testing"

	"amjs/internal/core"
	"amjs/internal/machine"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// TestWarmWhatIfTickAllocatesNothing pins the what-if tick's allocation
// budget at zero: once the planner, the Tuner's candidates and the
// engine's rollout worlds have seen a state, another tick from it — nine
// candidates built, forked and rolled out two hours — allocates
// nothing. The state is the Intrepid month's engine a week in, with a
// queue, a running set and a held reservation to roll out; the planner
// observes, so every tick repeats the same work. (Built without -race,
// which allocates on its own account.)
func TestWarmWhatIfTickAllocatesNothing(t *testing.T) {
	month := workload.Intrepid(42)
	jobs, err := month.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tuner := core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{Observe: true})))
	e, err := newEngine(Config{Machine: machine.NewIntrepid(), Scheduler: tuner})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := e.admit(j); err != nil {
			t.Fatal(err)
		}
	}
	for e.now < jobs[0].Submit.Add(7*24*units.Hour) || e.queue.len() < 8 {
		if _, err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
	tick := e.scheduler.(*core.Tuner)
	planner, _ := tick.WhatIfPlanner()
	for range 2 * planner.Config().LogCap { // fill the decision ring
		tick.Checkpoint(e, e)
	}
	if _, _, held := tick.ProtectedReservation(); !held {
		t.Fatal("no reservation held at the measured state")
	}
	before := planner.Status().Evaluated
	allocs := testing.AllocsPerRun(20, func() { tick.Checkpoint(e, e) })
	if ran := planner.Status().Evaluated - before; ran == 0 {
		t.Fatal("the measured ticks evaluated no rollouts")
	}
	if allocs != 0 {
		t.Errorf("a warm what-if tick allocates %v times, want 0", allocs)
	}
}
