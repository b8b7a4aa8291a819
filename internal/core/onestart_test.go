package core

import (
	"fmt"
	"slices"
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// hintEnv records the hint of every start, so a test can pin placements
// on machines without placement identity too.
type hintEnv struct {
	*schedtest.Env
	hints []int
}

func (e *hintEnv) StartAt(j *job.Job, hint int) bool {
	if !e.Env.StartAt(j, hint) {
		return false
	}
	e.hints = append(e.hints, hint)
	return true
}

// oneStartScene is a machine, busy so that a 128-node-or-larger holder
// is blocked and reserves at t=100, with the one unit (midplane or
// torus cell 4) where a long 32-node job can start without delaying
// that reservation; the other idle units lie under it. Machine first
// fit would pick unit 1, so the placement shows the start honours the
// re-committed reservation.
type oneStartScene struct {
	name   string
	build  func() machine.Machine
	holder int // holder node count
	small  int // the lone startable job's node count
	fits   int // a blocked job's node count that fits the idle count
	unit   int // the unit the small job must land on; -1 on flat
}

func oneStartScenes() []oneStartScene {
	// cells releases units 1..4 of eight single-unit fillers: unit 0
	// frees at 100, units 5..7 at 1000.
	cells := func(m machine.Machine) machine.Machine {
		var allocs []machine.Alloc
		for i := range 8 {
			wall := units.Duration(1000)
			if i == 0 {
				wall = 100
			}
			a, ok := m.TryStart(900+i, 32, 0, wall)
			if !ok {
				panic("setup: filler did not start")
			}
			allocs = append(allocs, a)
		}
		for _, a := range allocs[1:5] {
			m.Release(a, 0)
		}
		return m
	}
	return []oneStartScene{
		{"flat", func() machine.Machine {
			m := machine.NewFlat(256)
			if _, ok := m.TryStart(900, 160, 0, 100); !ok {
				panic("setup: filler did not start")
			}
			return m // 96 idle; the 200-node holder leaves 56 spare at 100
		}, 200, 40, 64, -1},
		{"partition", func() machine.Machine { return cells(machine.NewPartition(8, 32)) }, 128, 32, 64, 4},
		{"torus", func() machine.Machine { return cells(machine.NewTorus(2, 2, 2, 32)) }, 128, 32, 64, 4},
	}
}

// TestOneStartablePassSkipsRanking pins the one-start exit: with the
// protected reservation held and exactly one queued job startable, the
// pass starts that job where every ranking would, and nothing else, and
// reports itself Untuned, not Quiescent, not Mutated, with the horizon
// at the later of the holder's and the started job's submissions. The
// lone startable job sits at the front, the middle and the back of the
// ranking; the other jobs are blocked either by the idle count or, for
// those that fit it, by the reservation.
func TestOneStartablePassSkipsRanking(t *testing.T) {
	const now = units.Time(10)
	type policy struct {
		name    string
		mk      func() heldPolicy
		scorers []Scorer // the policy's ranking
	}
	var policies []policy
	for _, bf := range []float64{0, 0.5, 1} {
		for _, w := range []int{1, 4, 7} {
			policies = append(policies, policy{fmt.Sprintf("bf=%g/w=%d", bf, w),
				func() heldPolicy { return NewMetricAware(bf, w) }, scorersOf(NewMetricAware(bf, w))})
		}
	}
	policies = append(policies, policy{"easy", func() heldPolicy { return sched.NewEASY() }, scorersOf(NewMetricAware(1, 1))})
	for _, sc := range oneStartScenes() {
		for _, p := range policies {
			for _, pos := range []string{"front", "middle", "back"} {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.name, p.name, pos), func(t *testing.T) {
					m := sc.build()
					holder := schedtest.J(1, 0, sc.holder, 400, 400)
					env := &hintEnv{Env: schedtest.New(m, holder)}
					s := p.mk()
					s.Schedule(env)
					if id, at, held := s.ProtectedReservation(); !held || id != holder.ID || at != 100 {
						t.Fatalf("setup: reservation (%d, %v, %v), want job 1 at 100", id, at, held)
					}

					// Nine later jobs whose walltimes and submissions spread
					// the ranking; all are blocked until one is shrunk.
					var rest []*job.Job
					for i := range 9 {
						wall := units.Duration(200 + (i*37)%9*150)
						rest = append(rest, schedtest.J(2+i, units.Time(1+i), sc.holder+8, wall, wall))
						if i%2 == 1 {
							rest[i].Nodes = sc.fits
						}
					}
					ranked := slices.DeleteFunc(MultiPrioritize(now, append([]*job.Job{holder}, rest...), p.scorers),
						func(j *job.Job) bool { return j == holder })
					lone := ranked[map[string]int{"front": 0, "middle": len(ranked) / 2, "back": len(ranked) - 1}[pos]]
					lone.Nodes = sc.small
					env.Waiting = append(env.Waiting, rest...)
					env.T = now

					s.Schedule(env)
					if got := env.StartedIDs(); !slices.Equal(got, []int{lone.ID}) {
						t.Fatalf("started %v, want only job %d", got, lone.ID)
					}
					if fp, ok := m.(machine.Footprinter); ok {
						got, _, _ := fp.AllocUnits(env.Allocs[lone])
						if !slices.Equal(got, []int{sc.unit}) {
							t.Errorf("job %d placed on %v, want [%d]", lone.ID, got, sc.unit)
						}
					} else if env.hints[0] != 0 {
						t.Errorf("job %d started at hint %d, want 0", lone.ID, env.hints[0])
					}
					want := sched.PassReport{Horizon: max(holder.Submit, lone.Submit), Bounded: true, Untuned: true}
					if got := s.LastPass(); got != want {
						t.Errorf("report %+v, want %+v", got, want)
					}
					if id, _, held := s.ProtectedReservation(); !held || id != holder.ID {
						t.Errorf("reservation after the pass = (%d, %v), want job 1 held", id, held)
					}
				})
			}
		}
	}
}

// heldPolicy is a scheduler running the held-reservation pass:
// MetricAware, EASY or conservative backfilling.
type heldPolicy interface {
	sched.Scheduler
	sched.PassReporter
	ProtectedReservation() (jobID int, start units.Time, held bool)
}

// scorersOf returns the ranking a metric-aware scheduler applies.
func scorersOf(s *MetricAware) []Scorer {
	if s.scorers != nil {
		return s.scorers
	}
	bf := balanced(s.BF)
	return bf[:]
}

// TestTwoStartablePassFollowsRanking is the one-start exit's mutation
// gate: with the reservation held and two jobs startable that cannot
// both start, the ranking picks the one that does, so the pass must not
// take the exit. At W=1 the shorter, later job wins under SJF (BF=0),
// the earlier one under FCFS (BF=1 and EASY); an exit taken at two
// startable jobs would start the earlier one under all three.
func TestTwoStartablePassFollowsRanking(t *testing.T) {
	const now = units.Time(10)
	for _, sc := range oneStartScenes()[1:] { // partition and torus: one free unit
		for _, c := range []struct {
			name string
			mk   func() heldPolicy
			want int
		}{
			{"bf=0", func() heldPolicy { return NewMetricAware(0, 1) }, 3},
			{"bf=1", func() heldPolicy { return NewMetricAware(1, 1) }, 2},
			{"easy", func() heldPolicy { return sched.NewEASY() }, 2},
		} {
			m := sc.build()
			holder := schedtest.J(1, 0, sc.holder, 400, 400)
			env := schedtest.New(m, holder)
			s := c.mk()
			s.Schedule(env)
			env.Waiting = append(env.Waiting, schedtest.J(2, 1, sc.small, 900, 900), schedtest.J(3, 2, sc.small, 300, 300))
			env.T = now
			s.Schedule(env)
			if got := env.StartedIDs(); !slices.Equal(got, []int{c.want}) {
				t.Errorf("%s %s: started %v, want [%d]", sc.name, c.name, got, c.want)
			}
			if s.LastPass().Untuned {
				t.Errorf("%s %s: a pass that ranked two startable jobs reports Untuned", sc.name, c.name)
			}
		}
	}
}
