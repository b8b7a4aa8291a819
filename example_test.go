package amjs_test

import (
	"fmt"
	"strings"

	"amjs"
)

func stringsReader(s string) *strings.Reader { return strings.NewReader(s) }

// ExampleRun simulates two jobs that contend for a small machine.
func ExampleRun() {
	jobs := []*amjs.Job{
		{ID: 1, User: "alice", Submit: 0, Nodes: 8, Walltime: 100, Runtime: 100},
		{ID: 2, User: "bob", Submit: 10, Nodes: 8, Walltime: 100, Runtime: 50},
	}
	res, err := amjs.Run(amjs.SimConfig{
		Machine:   amjs.NewFlatMachine(8),
		Scheduler: amjs.NewEASY(),
	}, jobs)
	if err != nil {
		panic(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("job %d: start=%d end=%d\n", j.ID, int64(j.Start), int64(j.End))
	}
	// Output:
	// job 1: start=0 end=100
	// job 2: start=100 end=150
}

// ExampleNewMetricAware shows the balanced priority favouring a short
// job over an older long one at BF=0.
func ExampleNewMetricAware() {
	jobs := []*amjs.Job{ // submitted together; the short one wins at BF=0
		{ID: 1, User: "u", Submit: 0, Nodes: 8, Walltime: 10000, Runtime: 9000},
		{ID: 2, User: "u", Submit: 0, Nodes: 8, Walltime: 100, Runtime: 60},
	}
	res, err := amjs.Run(amjs.SimConfig{
		Machine:   amjs.NewFlatMachine(8),
		Scheduler: amjs.NewMetricAware(0, 1), // pure efficiency: SJF
	}, jobs)
	if err != nil {
		panic(err)
	}
	for _, j := range res.Jobs {
		fmt.Printf("job %d waited %ds\n", j.ID, int64(j.Wait()))
	}
	// Output:
	// job 1 waited 60s
	// job 2 waited 0s
}

// ExampleNewTuner builds the paper's two-dimensional adaptive policy.
func ExampleNewTuner() {
	t := amjs.NewTuner(amjs.BFScheme(1000), amjs.WScheme())
	fmt.Println(t.Name())
	bf, w := t.Tunables()
	fmt.Printf("initial BF=%g W=%d\n", bf, w)
	// Output:
	// adaptive(BF+W)
	// initial BF=1 W=1
}

// ExampleReadSWF parses the embedded sample trace.
func ExampleReadSWF() {
	jobs, skipped, err := amjs.ReadSWF(
		stringsReader(amjs.SampleSWF), amjs.SWFOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d jobs, %d skipped, first requests %d nodes\n",
		len(jobs), skipped, jobs[0].Nodes)
	// Output:
	// 10 jobs, 0 skipped, first requests 64 nodes
}

// ExampleNewMultiMetric ranks the queue by a custom weighted mix of
// normalized job features.
func ExampleNewMultiMetric() {
	s := amjs.NewMultiMetric(4, amjs.WaitScorer(0.5), amjs.LargeJobScorer(0.25), amjs.ShortJobScorer(0.25))
	fmt.Println(s.Name())
	// Output:
	// multi-metric(wait:0.5,large:0.25,short:0.25,w=4)
}
