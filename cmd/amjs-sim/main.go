// Command amjs-sim runs a single scheduling simulation: one workload,
// one machine model, one policy, and prints the paper's metrics.
//
// Examples:
//
//	amjs-sim -workload intrepid -policy metric:0.5:4
//	amjs-sim -workload trace.swf -machine flat:1024 -policy easy -fairness
//	amjs-sim -policy adaptive:2d:1000 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"amjs/internal/cli"
	"amjs/internal/metrics"
	"amjs/internal/results"
	"amjs/internal/sim"
	"amjs/internal/units"
)

func main() {
	var (
		machineSpec  = flag.String("machine", "intrepid", "machine model: "+strings.Join(cli.MachineSpecs, ", "))
		workloadSpec = flag.String("workload", "intrepid", "workload: intrepid, intrepid-heavy, mini, swf:PATH")
		policySpec   = flag.String("policy", "easy", "policy: "+strings.Join(cli.PolicySpecs, ", "))
		seed         = flag.Int64("seed", 42, "workload generator seed")
		maxJobs      = flag.Int("jobs", 0, "cap the number of jobs (0 = no cap)")
		fairness     = flag.Bool("fairness", false, "run the fair-start oracle (slower; enables the unfair-job count)")
		verbose      = flag.Bool("v", false, "print per-job results")
		gantt        = flag.Bool("gantt", false, "draw an ASCII Gantt chart of the schedule")
		schedCSV     = flag.String("schedule-csv", "", "write the executed schedule as CSV to this file")
	)
	flag.Parse()

	if err := run(*machineSpec, *workloadSpec, *policySpec, *seed, *maxJobs, *fairness, *verbose, *gantt, *schedCSV); err != nil {
		fmt.Fprintf(os.Stderr, "amjs-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(machineSpec, workloadSpec, policySpec string, seed int64, maxJobs int, fairness, verbose, gantt bool, schedCSV string) error {
	m, err := cli.ParseMachine(machineSpec)
	if err != nil {
		return err
	}
	jobs, wname, err := cli.ParseWorkload(workloadSpec, seed, maxJobs)
	if err != nil {
		return err
	}
	policy, err := cli.ParsePolicy(policySpec)
	if err != nil {
		return err
	}

	res, err := sim.Run(sim.Config{Machine: m, Scheduler: policy, Fairness: fairness}, jobs)
	if err != nil {
		return err
	}

	met := res.Metrics
	fmt.Printf("workload:        %s (%d jobs, %d rejected)\n", wname, len(res.Jobs), len(res.Rejected))
	fmt.Printf("machine:         %s (%d nodes)\n", m.Name(), m.TotalNodes())
	fmt.Printf("policy:          %s\n", res.Policy)
	fmt.Printf("makespan:        %.1f h\n", res.Makespan.HoursF())
	fmt.Printf("avg wait:        %.1f min\n", met.AvgWaitMinutes())
	fmt.Printf("max wait:        %.1f min\n", met.MaxWaitMinutes())
	fmt.Printf("avg BSLD:        %.2f\n", met.AvgBSLD())
	fmt.Printf("max BSLD:        %.1f\n", met.MaxBSLD())
	if fairness {
		fmt.Printf("unfair jobs:     %d of %d\n", met.UnfairCount(), met.FairKnownCount())
	}
	fmt.Printf("loss of capacity: %.2f%%\n", met.LoC()*100)
	fmt.Printf("utilization:     %.1f%% (busy) / %.1f%% (requested)\n", met.UtilAvg()*100, met.UsedAvg()*100)
	fmt.Printf("finished/killed: %d / %d\n", met.FinishedCount(), met.KilledCount())
	if ws := res.WhatIf; ws != nil {
		fmt.Printf("what-if:         %s objective, %d ticks, %d rollouts, %d commits, %d skips\n",
			ws.Objective, ws.Ticks, ws.Evaluated, ws.Commits, ws.Skipped)
		if verbose {
			for _, d := range ws.Decisions {
				state := "kept"
				if d.Committed {
					state = "commit"
				}
				fmt.Printf("  t=%7.1fh %-6s (%.2g,%d) -> (%.2g,%d)  score %.3f -> %.3f  (%d/%d rollouts)\n",
					units.Duration(d.At).HoursF(), state, d.PrevBF, d.PrevW, d.BF, d.W,
					d.PrevScore, d.Score, d.Evaluated, d.Candidates)
			}
		}
	}
	if len(res.Jobs) > 0 {
		first, last := res.Jobs[0].Submit, res.Jobs[0].End
		for _, j := range res.Jobs {
			if j.Submit < first {
				first = j.Submit
			}
			if j.End > last {
				last = j.End
			}
		}
		results.UtilizationStrip(os.Stdout, func(at units.Time) float64 {
			return met.Busy.At(at) / float64(m.TotalNodes())
		}, first, last, 72)
	}

	if verbose {
		fmt.Println()
		fmt.Print(metrics.FormatBreakdown("wait by job size:", metrics.WaitBySize(res.Jobs, m.TotalNodes())))
		fmt.Print(metrics.FormatBreakdown("wait by runtime:", metrics.WaitByRuntime(res.Jobs)))
		fmt.Print(metrics.FormatBreakdown("wait by user (top 5):", metrics.WaitByUser(res.Jobs, 5)))
		fmt.Printf("\n%6s %10s %10s %10s %8s\n", "job", "submit", "start", "end", "wait(m)")
		for _, j := range res.Jobs {
			fmt.Printf("%6d %10d %10d %10d %8.1f\n", j.ID, int64(j.Submit), int64(j.Start), int64(j.End), j.Wait().Minutes())
		}
	}
	if gantt {
		fmt.Println()
		results.Gantt(os.Stdout, res.Jobs, 72)
	}
	if schedCSV != "" {
		f, err := os.Create(schedCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := results.ScheduleCSV(f, res.Jobs); err != nil {
			return err
		}
	}
	return nil
}
