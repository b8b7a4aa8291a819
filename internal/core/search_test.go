package core

import (
	"math/rand"
	"reflect"
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// fixedIndependence is a test-only plan that answers every Independent
// query with indep and delegates the rest. false never lets two jobs
// commute, which is the window search without its reduction; true is a
// deliberately broken plan the oracle must catch.
type fixedIndependence struct {
	machine.Plan
	indep bool
}

func (p fixedIndependence) Independent(machine.Placement, machine.Placement) bool { return p.indep }

// dependentMachine hands out plans that never call two placements
// independent, so a whole simulation runs the unreduced search.
type dependentMachine struct{ machine.Machine }

func (m dependentMachine) Plan(now units.Time) machine.Plan {
	return fixedIndependence{Plan: m.Machine.Plan(now)}
}

func (m dependentMachine) Clone() machine.Machine { return dependentMachine{m.Machine.Clone()} }

// The reduced search must pick the unreduced search's winner on every
// window, expanding no more nodes and running no more probes: sleep
// sets and inherited answers only remove work, and the incumbent's
// score at each point of the lexicographic walk is the same in both, so
// every bound cut is too.
func TestReducedSearchMatchesUnreduced(t *testing.T) {
	for _, row := range oracleRows {
		t.Run(row.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(row.seed + 36))
			var reducedTotal, unreducedTotal SearchStats
			for _, utilFirst := range []bool{false, true} {
				reduced := NewMetricAware(0.5, maxPermWindow)
				unreduced := NewMetricAware(0.5, maxPermWindow)
				reduced.UtilizationFirst, unreduced.UtilizationFirst = utilFirst, utilFirst
				for i := 0; i < row.rounds; i++ {
					n := oracleWidth(i)
					m := row.m(r)
					window := row.window(r, n)
					now := units.Time(r.Intn(40))
					plan := m.Plan(now)
					before, beforeU := reduced.SearchStats(), unreduced.SearchStats()
					want := append([]int(nil), unreduced.bestPermutation(fixedIndependence{Plan: plan}, window, now)...)
					got := reduced.bestPermutation(plan, window, now)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("utilFirst=%v round %d on %s: reduced search picked %v, unreduced %v (window %v)",
							utilFirst, i, m.Name(), got, want, describeWindow(window))
					}
					after, afterU := reduced.SearchStats(), unreduced.SearchStats()
					if after.Nodes-before.Nodes > afterU.Nodes-beforeU.Nodes ||
						after.Probes-before.Probes > afterU.Probes-beforeU.Probes {
						t.Fatalf("utilFirst=%v round %d: reduced search did more work (%+v) than unreduced (%+v)",
							utilFirst, i, after, afterU)
					}
				}
				reducedTotal = addStats(reducedTotal, reduced.SearchStats())
				unreducedTotal = addStats(unreducedTotal, unreduced.SearchStats())
			}
			if unreducedTotal.Asleep != 0 || unreducedTotal.Inherited != 0 {
				t.Fatalf("the unreduced search reduced: %+v", unreducedTotal)
			}
			if reducedTotal.Asleep == 0 || reducedTotal.Inherited == 0 || reducedTotal.Probes >= unreducedTotal.Probes {
				t.Fatalf("the reduction never fired: reduced %+v, unreduced %+v", reducedTotal, unreducedTotal)
			}
			t.Logf("reduced %+v, unreduced %+v", reducedTotal, unreducedTotal)
		})
	}
}

func addStats(a, b SearchStats) SearchStats {
	return SearchStats{a.Nodes + b.Nodes, a.Asleep + b.Asleep, a.Inherited + b.Inherited, a.Probes + b.Probes,
		a.Twins + b.Twins, a.CapCuts + b.CapCuts}
}

// A plan that calls every pair independent lets the search skip orders
// and reuse answers that commits did move, so the exhaustive oracle
// must catch it on both machine rows: the oracle comparison has teeth
// against an unsound Independent.
func TestAlwaysIndependentFailsOracle(t *testing.T) {
	always := func(p machine.Plan) machine.Plan { return fixedIndependence{Plan: p, indep: true} }
	for _, row := range oracleRows {
		if oracleMismatch(t, row, always) == "" {
			t.Errorf("%s: an always-independent plan passed the exhaustive oracle", row.name)
		}
	}
}

// shortFreeNow is a test-only Intrepid plan whose FreeNow reports one
// aligned block of the request's width too few: a capacity bound that
// is too low, which the search must never be handed.
type shortFreeNow struct{ machine.Plan }

var intrepid = machine.NewIntrepid()

func (p shortFreeNow) FreeNow(nodes int) int {
	return max(0, p.Plan.FreeNow(nodes)-intrepid.PartitionNodes(nodes))
}

// The capacity bound cuts on FreeNow, so one block too few must cut an
// optimal order somewhere on the Intrepid row: the oracle comparison
// has teeth against an unsound FreeNow.
func TestShortFreeNowFailsOracle(t *testing.T) {
	short := func(p machine.Plan) machine.Plan { return shortFreeNow{p} }
	if oracleMismatch(t, oracleRowNamed(t, "intrepid-80x512"), short) == "" {
		t.Error("a FreeNow one block short passed the exhaustive oracle")
	}
}

// A twin rule turned around — of two unplaced twins the higher-index
// one is placed next — still finds an optimal schedule, but not the
// lexicographically first order of it, so the oracle must catch it on
// both twin rows.
func TestMirroredTwinRuleFailsOracle(t *testing.T) {
	mirrored := func(s *MetricAware, plan machine.Plan, window []*job.Job, now units.Time) []int {
		ps := &permSearch{}
		ps.identity(len(window))
		ps.begin(plan, window, now, s.UtilizationFirst)
		for c, j := range window {
			ps.twins[c] = 0
			for k := c + 1; k < len(window); k++ {
				if window[k].Nodes == j.Nodes && window[k].Walltime == j.Walltime {
					ps.twins[c] |= 1 << k
				}
			}
		}
		ps.run()
		return ps.best
	}
	for _, name := range []string{"mixed-twins", "intrepid-twins"} {
		if oracleMismatchOf(t, oracleRowNamed(t, name), mirrored) == "" {
			t.Errorf("%s: a mirrored twin rule passed the exhaustive oracle", name)
		}
	}
}

func oracleRowNamed(t *testing.T, name string) oracleRow {
	for _, row := range oracleRows {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no oracle row %q", name)
	return oracleRow{}
}
