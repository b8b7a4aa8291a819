package experiments

import (
	"fmt"
	"sort"
	"time"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/results"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// table3QueueLen is the congested-queue size used to time one
// scheduling iteration; the window permutation search dominates, so the
// exact value matters little beyond "machine full, queue deep".
const table3QueueLen = 48

// table3State builds a reproducible congested scheduling state: the
// machine mostly busy, a deep queue behind it. Returns the machine and
// the queue template (cloned per timed iteration).
func table3State(pf platform) (machine.Machine, []*job.Job, error) {
	jobs, err := pf.config.Generate()
	if err != nil {
		return nil, nil, err
	}
	m := pf.machine()
	// Occupy the machine with the first jobs that fit.
	occupied := 0
	i := 0
	for ; i < len(jobs) && occupied < m.TotalNodes()*8/10; i++ {
		j := jobs[i]
		if _, ok := m.TryStart(j.ID, j.Nodes, 0, j.Walltime); ok {
			occupied = m.BusyNodes()
		}
	}
	var queue []*job.Job
	for ; i < len(jobs) && len(queue) < table3QueueLen; i++ {
		j := jobs[i].Clone()
		j.Submit = units.Time(len(queue)) // deterministic FCFS order
		j.State = job.Queued
		queue = append(queue, j)
	}
	if len(queue) < table3QueueLen {
		return nil, nil, fmt.Errorf("experiments: workload too small for table 3 (%d queued)", len(queue))
	}
	return m, queue, nil
}

// Table3 reproduces Table III — the runtime of one scheduling iteration
// per window size, on a congested state (full machine, deep queue).
// Absolute values are incomparable with the paper's Python-on-2008-
// desktop numbers; the claim is the superlinear growth in W from the
// permutation search, and that even W=5 stays far below the ~10 s
// scheduling period of the production resource manager.
func Table3(opt Options) error {
	pf, err := opt.platform()
	if err != nil {
		return err
	}
	m, queueTemplate, err := table3State(pf)
	if err != nil {
		return err
	}

	tab := results.NewTable("Table III: runtime per scheduling iteration",
		"window size", "time per iteration (ms)", "vs W=1")
	var base float64
	for _, w := range []int{1, 2, 3, 4, 5} {
		perIter := timeIteration(m, queueTemplate, w)
		if w == 1 {
			base = perIter
		}
		ratio := perIter / base
		tab.Add(fmt.Sprintf("W=%d", w), fmt.Sprintf("%.3f", perIter*1000), fmt.Sprintf("%.1fx", ratio))
		opt.log("table3: W=%d %.3f ms/iteration", w, perIter*1000)
	}
	tab.Render(opt.out())
	fmt.Fprintln(opt.out())
	return opt.writeFile("table3.csv", tab.WriteCSV)
}

// timeIteration measures the median wall time of one Schedule pass at
// the given window size over enough repetitions to be stable.
func timeIteration(m machine.Machine, queueTemplate []*job.Job, w int) float64 {
	const reps = 9
	samples := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		_, d := table3Pass(m, queueTemplate, w)
		samples = append(samples, d.Seconds())
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// table3Pass runs one MetricAware(0.5, w) pass over a fresh copy of the
// congested state and returns the scheduler, whose search counters
// (SearchStats) tell what the pass did, and the pass's wall time.
func table3Pass(m machine.Machine, queueTemplate []*job.Job, w int) (*core.MetricAware, time.Duration) {
	env := schedtest.New(m.Clone(), job.CloneAll(queueTemplate)...)
	env.T = 10
	s := core.NewMetricAware(0.5, w)
	start := time.Now()
	s.Schedule(env)
	return s, time.Since(start)
}
