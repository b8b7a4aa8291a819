package core

import (
	"testing"

	"amjs/internal/job"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// BenchmarkPrioritizeWarm times one scheduler's ranking pass over a
// slowly evolving queue, as between the passes of a backlogged run: a
// 1,000-job queue whose head job leaves and to which one job arrives
// per pass while the clock advances a minute. The seeded order repairs
// the last pass's instead of sorting afresh; BenchmarkPrioritize at the
// module root times the cold sort.
func BenchmarkPrioritizeWarm(b *testing.B) {
	const depth = 1000
	pool := make([]*job.Job, depth+b.N)
	for i := range pool {
		pool[i] = schedtest.J(i+1, units.Time(i*60), 1+(i*37)%4096,
			units.Duration(600+(i*7919)%40000), 300)
	}
	s := NewMetricAware(0.5, 5)
	s.prio = &prioScratch{}
	sc := balanced(s.BF)
	now := units.Time(depth * 60)
	s.prio.prioritize(now, pool[:depth], sc[:])
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		now += 60
		s.prio.prioritize(now, pool[i:i+depth], sc[:])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/depth, "ns/job")
}
