package core

import (
	"math/rand"
	"slices"
	"testing"

	"amjs/internal/job"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// TestSeededRankingMatchesFreshSort drives one scheduler's ranking
// scratch through random queue histories: the clock advancing, jobs
// leaving from anywhere, arrivals appended, the balance factor and the
// scorer set changing, and scratch that last ranked an unrelated queue
// arriving through AdoptScratch or a CloneInto into a retired instance.
// After every call the repaired order must be the order a fresh sort
// gives the same queue.
func TestSeededRankingMatchesFreshSort(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		nextID := 1
		now := units.Time(0)
		arrive := func(q []*job.Job, n int) []*job.Job {
			for ; n > 0; n-- {
				// Narrow ranges make equal scores, submits and walltimes
				// common, so the tie-breaks are exercised.
				q = append(q, schedtest.J(nextID, now, 1+64*r.Intn(8),
					units.Duration(600*(1+r.Intn(6))), 300))
				nextID++
			}
			return q
		}
		// unrelated ranks a shuffled mix of live and foreign jobs, so its
		// scratch holds a hint that contradicts arrival order.
		unrelated := func(q []*job.Job) *MetricAware {
			o := NewMetricAware(r.Float64(), 3)
			mix := arrive(slices.Clone(q), r.Intn(20))
			r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
			o.prio = &prioScratch{}
			sc := balanced(o.BF)
			o.prio.prioritize(now, mix[:r.Intn(len(mix)+1)], sc[:])
			return o
		}

		s := NewMetricAware(0.5, 4)
		s.prio = &prioScratch{}
		queue := arrive(nil, 1+r.Intn(40))
		for step := 0; step < 150; step++ {
			switch op := r.Intn(10); {
			case op < 3:
				now += units.Time(r.Intn(3600))
			case op < 5:
				for n := r.Intn(5); n > 0 && len(queue) > 0; n-- {
					i := r.Intn(len(queue))
					queue = slices.Delete(queue, i, i+1)
				}
			case op < 7:
				queue = arrive(queue, r.Intn(6))
			case op == 7:
				s.BF = float64(r.Intn(5)) / 4
				s.scorers = nil
				if r.Intn(3) == 0 {
					s.scorers = []Scorer{WaitScorer(0.5), Scorer{featureNames[1+r.Intn(4)], float64(r.Intn(9)-4) / 4}}
				}
			case op == 8:
				d := NewMetricAware(s.BF, s.W)
				d.scorers = s.scorers
				d.AdoptScratch(unrelated(queue))
				s = d
			default:
				s = s.CloneInto(unrelated(queue)).(*MetricAware)
			}
			scorers := s.scorers
			if scorers == nil {
				bf := balanced(s.BF)
				scorers = bf[:]
			}
			got := ids(s.prio.prioritize(now, queue, scorers))
			if want := ids(MultiPrioritize(now, queue, scorers)); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: repaired order %v, fresh sort %v", seed, step, got, want)
			}
		}
	}
}

// TestWarmRankingAllocatesNothing pins a warm pass at zero allocations:
// the queue slides (departures at the head, arrivals at the tail) and
// the clock advances, as between the passes of a backlogged run.
func TestWarmRankingAllocatesNothing(t *testing.T) {
	const depth, passes = 300, 60
	pool := make([]*job.Job, depth+passes+1)
	for i := range pool {
		pool[i] = schedtest.J(i+1, units.Time(i*30), 1+(i*37)%512,
			units.Duration(600+(i*7919)%20000), 300)
	}
	var p prioScratch
	sc := balanced(0.5)
	now := units.Time(len(pool) * 30)
	p.prioritize(now, pool[:depth], sc[:])
	i := 0
	allocs := testing.AllocsPerRun(passes, func() {
		i++
		now += 60
		p.prioritize(now, pool[i:i+depth], sc[:])
	})
	if allocs != 0 {
		t.Errorf("warm ranking pass allocated %v times, want 0", allocs)
	}
}
