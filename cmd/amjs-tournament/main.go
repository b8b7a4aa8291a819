// Command amjs-tournament plays a cross-trace policy tournament: every
// policy in the list runs on every {workload x machine x seed} trace,
// cells are ranked per trace by average bounded slowdown, and an
// aggregate league table (mean rank + outright wins, adaptive schemes
// starred) is printed with optional text/CSV/JSON artifacts. Results
// are byte-identical at any -workers value.
//
// Example:
//
//	amjs-tournament -workloads mini,swf:trace.swf -machines partition:8x64 \
//	    -policies tournament -jobs 200 -csv league.csv -json league.json
//
// A balance-factor x window-size grid (the paper's Figure 3 study) is a
// list of metric:BF:W specs; each cell reports avg/max wait, avg/max
// BSLD, utilization, LoC, mean queue depth and, with -fairness, the
// unfair-job count:
//
//	amjs-tournament -workloads intrepid -fairness -csv grid.csv \
//	    -policies metric:1:1,metric:1:4,metric:0.5:1,metric:0.5:4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"amjs/internal/cli"
	"amjs/internal/experiments"
)

func main() {
	var (
		machines   = flag.String("machines", "intrepid", "comma-separated machine specs: "+strings.Join(cli.MachineSpecs, ", "))
		workloads  = flag.String("workloads", "intrepid,intrepid-heavy", "comma-separated workloads: intrepid, intrepid-heavy, mini, swf:PATH")
		seeds      = flag.String("seeds", "42", "comma-separated workload generator seeds")
		policies   = flag.String("policies", "tournament", `policy list: "tournament" (the default zoo) or comma-separated policy specs`)
		maxJobs    = flag.Int("jobs", 0, "cap the number of jobs per trace (0 = no cap)")
		fairness   = flag.Bool("fairness", false, "run the fair-start oracle (enables unfair counts)")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = one per CPU)")
		txtPath    = flag.String("txt", "", "also write the league tables as text to this file")
		csvPath    = flag.String("csv", "", "also write the cell grid as CSV to this file")
		jsonPath   = flag.String("json", "", "also write the league as JSON to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amjs-tournament: %v\n", err)
		os.Exit(1)
	}
	runErr := run(os.Stdout, *machines, *workloads, *seeds, *policies,
		*maxJobs, *fairness, *workers, *txtPath, *csvPath, *jsonPath)
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "amjs-tournament: %v\n", runErr)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// traceName labels one workload in the league: the preset name, or the
// trace file's base name for SWF specs (full parse names embed the path
// and job census, too noisy for a rank table and unfriendly to CSV).
func traceName(workloadSpec string) string {
	if strings.HasPrefix(workloadSpec, "swf:") || strings.HasSuffix(workloadSpec, ".swf") {
		return filepath.Base(strings.TrimPrefix(workloadSpec, "swf:"))
	}
	return workloadSpec
}

// buildTraces expands the {workload x machine x seed} grid into named
// tournament traces. Machine and seed suffixes are only appended when
// the respective list has more than one entry, so the common single-
// machine single-seed league keeps clean workload names.
func buildTraces(machineSpecs, workloadSpecs []string, seeds []int64, maxJobs int) ([]experiments.TournamentTrace, error) {
	var traces []experiments.TournamentTrace
	for _, w := range workloadSpecs {
		for _, m := range machineSpecs {
			for _, seed := range seeds {
				jobs, _, err := cli.ParseWorkload(w, seed, maxJobs)
				if err != nil {
					return nil, err
				}
				name := traceName(w)
				if len(machineSpecs) > 1 {
					name += "@" + m
				}
				if len(seeds) > 1 {
					name += "#" + strconv.FormatInt(seed, 10)
				}
				traces = append(traces, experiments.TournamentTrace{Name: name, Machine: m, Jobs: jobs})
			}
		}
	}
	return traces, nil
}

func run(out io.Writer, machines, workloads, seeds, policies string, maxJobs int, fairness bool, workers int, txtPath, csvPath, jsonPath string) error {
	specs, err := cli.ParsePolicyList(policies)
	if err != nil {
		return err
	}
	seedList, err := parseSeeds(seeds)
	if err != nil {
		return err
	}
	machineSpecs, workloadSpecs := splitList(machines), splitList(workloads)
	if len(machineSpecs) == 0 || len(workloadSpecs) == 0 || len(seedList) == 0 {
		return fmt.Errorf("need at least one machine, workload, and seed")
	}
	traces, err := buildTraces(machineSpecs, workloadSpecs, seedList, maxJobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "amjs-tournament: %d policies x %d traces = %d cells\n",
		len(specs), len(traces), len(specs)*len(traces))

	lg, err := experiments.RunTournament(experiments.TournamentConfig{
		Policies: specs,
		Traces:   traces,
		Fairness: fairness,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	if err := lg.WriteText(out); err != nil {
		return err
	}
	writeTo := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeTo(txtPath, lg.WriteText); err != nil {
		return err
	}
	if err := writeTo(csvPath, lg.WriteCSV); err != nil {
		return err
	}
	return writeTo(jsonPath, lg.WriteJSON)
}
