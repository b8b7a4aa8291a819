package core

import (
	"testing"

	"amjs/internal/machine"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// TestReservationPersistsAcrossPasses drives the scheduler through
// several scheduling passes by hand and verifies the protected job's
// reservation is honored pass after pass: window-mates may overtake it
// at most once, so its start never recedes.
func TestReservationPersistsAcrossPasses(t *testing.T) {
	m := machine.NewFlat(10)
	// One running job holds 3 nodes until t=100.
	blockerJob := schedtest.J(99, 0, 3, 100, 100)
	env := schedtest.New(m, blockerJob)
	s := NewMetricAware(1, 2)
	s.Schedule(env)
	if len(env.Started) != 1 {
		t.Fatal("setup start failed")
	}

	// Pass 1: the full-machine head is blocked; the window-mate (ending
	// at t=160) overtakes it once, pushing the head's reservation from
	// t=100 to t=160.
	head := schedtest.J(1, 0, 10, 100, 90)
	mate := schedtest.J(2, 1, 4, 150, 140)
	env.T = 10
	env.Waiting = append(env.Waiting, head, mate)
	s.Schedule(env)
	if got := env.StartedIDs(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("pass 1 started %v, want the window-mate", got)
	}
	if id, _, _ := s.ProtectedReservation(); id != 1 {
		t.Fatalf("head not protected: holder=%d", id)
	}

	// Pass 2 at t=20: new small jobs arrive. The head is now protected
	// at t=160; a 3-node job ending by then may backfill, one that would
	// run past it must be refused.
	fits := schedtest.J(3, 20, 3, 120, 100)   // ends 140 <= 160
	delays := schedtest.J(4, 21, 3, 500, 400) // would hold nodes past 160
	env.T = 20
	env.Waiting = append(env.Waiting, fits, delays)
	s.Schedule(env)
	ids := env.StartedIDs()
	started3, started4 := false, false
	for _, id := range ids {
		if id == 3 {
			started3 = true
		}
		if id == 4 {
			started4 = true
		}
	}
	if !started3 {
		t.Errorf("harmless backfill refused: started %v", ids)
	}
	if started4 {
		t.Errorf("reservation-delaying job started: %v", ids)
	}
	if id, _, _ := s.ProtectedReservation(); id != 1 {
		t.Errorf("protection moved to %d", id)
	}

	// Drain everything; the head must start the moment the machine
	// frees (t=160), not later.
	env.Finish(blockerJob, 100)
	env.T = 100
	s.Schedule(env)
	env.Finish(fits, 140)
	env.Finish(mate, 160)
	env.T = 160
	s.Schedule(env)
	if head.Start != 160 {
		t.Errorf("head started at %v, want 160", head.Start)
	}
	// With the head running, protection passes to the next blocked job.
	if id, _, _ := s.ProtectedReservation(); id != 4 {
		t.Errorf("protection should move to the delayed job: holder=%d", id)
	}
}

// TestTunablesReflectTuning pins the Tunables() reporting path used by
// the engine's BF/W checkpoint series.
func TestTunablesReflectTuning(t *testing.T) {
	tu := NewTuner(PaperBFScheme(100), PaperWScheme())
	env := schedtest.New(machine.NewFlat(4))
	tu.Checkpoint(env, fakeMetrics{
		qd: 500,
		util: map[units.Duration]float64{
			10 * units.Hour: 0.2, 24 * units.Hour: 0.9,
		},
	})
	bf, w := tu.Tunables()
	if bf != 0.5 || w != 4 {
		t.Errorf("tunables = %v, %d", bf, w)
	}
}
