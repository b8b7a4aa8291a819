// Package cli parses the machine / workload / policy specification
// strings shared by the command-line tools.
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// MachineSpecs enumerates every accepted machine spec shape, in the
// order the ParseMachine documentation lists them. Unknown-machine
// errors and command-line usage strings are built from it so the two
// can never drift apart.
var MachineSpecs = []string{"intrepid", "intrepid-torus", "flat:N", "partition:MxK", "torus:XxYxZxK"}

// ParseMachine builds a machine model from a spec:
//
//	intrepid          the paper's Blue Gene/P (80 midplanes x 512 nodes)
//	intrepid-torus    the same machine as a 5x4x4 midplane torus
//	flat:N            flat machine with N nodes
//	partition:MxK     partitioned machine, M midplanes of K nodes
//	torus:XxYxZxK     torus machine, XxYxZ midplanes of K nodes
func ParseMachine(spec string) (machine.Machine, error) {
	switch {
	case spec == "" || spec == "intrepid":
		return machine.NewIntrepid(), nil
	case spec == "intrepid-torus":
		return machine.NewIntrepidTorus(), nil
	case strings.HasPrefix(spec, "torus:"):
		dims := strings.Split(spec[len("torus:"):], "x")
		if len(dims) != 4 {
			return nil, fmt.Errorf("cli: bad torus machine spec %q (want torus:XxYxZxK)", spec)
		}
		var v [4]int
		for i, d := range dims {
			n, err := strconv.Atoi(d)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("cli: bad torus machine spec %q", spec)
			}
			v[i] = n
		}
		return machine.NewTorus(v[0], v[1], v[2], v[3]), nil
	case strings.HasPrefix(spec, "flat:"):
		n, err := strconv.Atoi(spec[len("flat:"):])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("cli: bad flat machine spec %q", spec)
		}
		return machine.NewFlat(n), nil
	case strings.HasPrefix(spec, "partition:"):
		dims := strings.Split(spec[len("partition:"):], "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("cli: bad partition machine spec %q (want partition:MxK)", spec)
		}
		m, err1 := strconv.Atoi(dims[0])
		k, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil || m <= 0 || k <= 0 {
			return nil, fmt.Errorf("cli: bad partition machine spec %q", spec)
		}
		return machine.NewPartition(m, k), nil
	default:
		return nil, fmt.Errorf("cli: unknown machine %q (%s)", spec, strings.Join(MachineSpecs, ", "))
	}
}

// ParseWorkload loads or generates a workload from a spec:
//
//	intrepid | intrepid-heavy | mini   synthetic presets (with seed)
//	swf:PATH or PATH.swf               a Standard Workload Format trace
func ParseWorkload(spec string, seed int64, maxJobs int) ([]*job.Job, string, error) {
	if seed == 0 {
		seed = 42
	}
	var cfg workload.Config
	switch {
	case spec == "" || spec == "intrepid":
		cfg = workload.Intrepid(seed)
	case spec == "intrepid-heavy":
		cfg = workload.IntrepidHeavy(seed)
	case spec == "mini":
		cfg = workload.Mini(seed)
	case strings.HasPrefix(spec, "swf:"), strings.HasSuffix(spec, ".swf"):
		path := strings.TrimPrefix(spec, "swf:")
		f, err := os.Open(path)
		if err != nil {
			return nil, "", fmt.Errorf("cli: %w", err)
		}
		defer f.Close()
		jobs, skipped, err := workload.ReadSWF(f, workload.SWFOptions{Source: path})
		if err != nil {
			return nil, "", err
		}
		if maxJobs > 0 && len(jobs) > maxJobs {
			jobs = jobs[:maxJobs]
		}
		name := fmt.Sprintf("%s (%d jobs, %d skipped)", path, len(jobs), skipped)
		return jobs, name, nil
	default:
		return nil, "", fmt.Errorf("cli: unknown workload %q (intrepid, intrepid-heavy, mini, swf:PATH)", spec)
	}
	cfg.MaxJobs = maxJobs
	jobs, err := cfg.Generate()
	if err != nil {
		return nil, "", err
	}
	return jobs, cfg.Name, nil
}

// PolicySpecs enumerates every accepted policy spec shape, in the order
// the ParsePolicy documentation lists them. Unknown-policy errors and
// command-line usage strings are built from it so the two can never
// drift apart.
var PolicySpecs = []string{
	"easy", "fcfs", "sjf", "ljf", "firstfit", "conservative", "wfp",
	"unicef", "largest", "smallest", "dynp",
	"fairshare[:HALFLIFE-HOURS]",
	"relaxed:SLACK-MINUTES",
	"metric:{BF,NAME=WEIGHT+...}:W[:conservative]",
	"adaptive:{bf,w,2d}[:THRESHOLD]",
	"whatif[:OBJ[:HORIZON-H[:observe]]]",
}

// ParsePolicy builds a scheduler from a spec:
//
//	fcfs | sjf | ljf | firstfit        reservation depth 0: strict lists
//	                                   and greedy first fit
//	easy | conservative | wfp | dynp   backfilling baselines
//	unicef | largest | smallest        zoo orders with EASY backfilling
//	fairshare[:HALFLIFE-HOURS]         decayed-usage fair share
//	relaxed:SLACK-MINUTES              relaxed backfilling (Ward et al.)
//	metric:BF:W[:conservative]         metric-aware scheduling (Eq. 3)
//	metric:NAME=WEIGHT+...:W[:conservative]
//	                                   metric-aware scheduling over a
//	                                   weighted feature mix (§V), NAME
//	                                   one of wait, short, large, small,
//	                                   lowcost; e.g.
//	                                   metric:wait=0.5+large=0.25+short=0.25:4
//	adaptive:bf:THRESHOLD              adaptive balance factor
//	adaptive:w                         adaptive window size
//	adaptive:2d:THRESHOLD              two-dimensional tuning
//	whatif[:OBJ[:HORIZON-H[:observe]]] simulation-in-the-loop tuning:
//	                                   at each checkpoint the engine
//	                                   forks and simulates a (BF, W)
//	                                   candidate grid HORIZON-H virtual
//	                                   hours ahead, committing the best
//	                                   rollout under objective OBJ
//	                                   (avg-wait, bsld, util, blend);
//	                                   "observe" evaluates without
//	                                   committing
//
// THRESHOLD is the queue-depth trigger in minutes.
func ParsePolicy(spec string) (sched.Scheduler, error) {
	switch spec {
	case "", "easy":
		return sched.NewEASY(), nil
	case "fcfs":
		return sched.NewFCFS(), nil
	case "sjf":
		return sched.NewSJF(), nil
	case "ljf":
		return sched.NewLJF(), nil
	case "firstfit":
		return sched.NewFirstFit(), nil
	case "conservative":
		return sched.NewConservative(), nil
	case "wfp":
		return sched.NewWFP(), nil
	case "unicef":
		return sched.NewUNICEF(), nil
	case "largest":
		return sched.NewLargest(), nil
	case "smallest":
		return sched.NewSmallest(), nil
	case "dynp":
		return sched.NewDynP(), nil
	case "fairshare":
		return sched.NewFairShare(24 * units.Hour), nil
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "relaxed":
		if len(parts) != 2 {
			return nil, fmt.Errorf("cli: bad relaxed policy %q (want relaxed:SLACK-MINUTES)", spec)
		}
		mins, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || mins < 0 {
			return nil, fmt.Errorf("cli: bad slack in %q", spec)
		}
		return sched.NewRelaxed(units.Minutes(mins)), nil
	case "fairshare":
		if len(parts) != 2 {
			return nil, fmt.Errorf("cli: bad fairshare policy %q (want fairshare:HALFLIFE-HOURS)", spec)
		}
		hours, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || hours <= 0 {
			return nil, fmt.Errorf("cli: bad half-life in %q", spec)
		}
		return sched.NewFairShare(units.Hours(hours)), nil
	case "metric":
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("cli: bad metric policy %q (want metric:BF:W or metric:NAME=WEIGHT+...:W)", spec)
		}
		w, err := strconv.Atoi(parts[2])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("cli: bad window size in %q", spec)
		}
		var s *core.MetricAware
		if strings.Contains(parts[1], "=") {
			scorers, err := parseScorers(parts[1])
			if err != nil {
				return nil, fmt.Errorf("cli: bad scorers in %q: %w", spec, err)
			}
			s = core.NewMultiMetric(w, scorers...)
		} else {
			bf, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || bf < 0 || bf > 1 {
				return nil, fmt.Errorf("cli: bad balance factor in %q", spec)
			}
			s = core.NewMetricAware(bf, w)
		}
		if len(parts) == 4 {
			if parts[3] != "conservative" {
				return nil, fmt.Errorf("cli: bad metric policy suffix %q", parts[3])
			}
			s.Conservative = true
		}
		return s, nil
	case "adaptive":
		if len(parts) < 2 {
			return nil, fmt.Errorf("cli: bad adaptive policy %q", spec)
		}
		threshold := 1000.0 // the paper's example threshold (minutes)
		if len(parts) >= 3 {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("cli: bad threshold in %q", spec)
			}
			threshold = v
		}
		switch parts[1] {
		case "bf":
			return core.NewTuner(core.PaperBFScheme(threshold)), nil
		case "w":
			return core.NewTuner(core.PaperWScheme()), nil
		case "2d":
			return core.NewTuner(core.PaperBFScheme(threshold), core.PaperWScheme()), nil
		default:
			return nil, fmt.Errorf("cli: unknown adaptive scheme %q (bf, w, 2d)", parts[1])
		}
	case "whatif":
		if len(parts) > 4 {
			return nil, fmt.Errorf("cli: bad whatif policy %q (want whatif[:OBJECTIVE[:HORIZON-HOURS[:observe]]])", spec)
		}
		var cfg whatif.Config
		if len(parts) >= 2 && parts[1] != "" {
			obj, err := whatif.ParseObjective(parts[1])
			if err != nil {
				return nil, fmt.Errorf("cli: %w", err)
			}
			cfg.Objective = obj
		}
		if len(parts) >= 3 && parts[2] != "" {
			hours, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || hours <= 0 {
				return nil, fmt.Errorf("cli: bad horizon in %q (want hours > 0)", spec)
			}
			cfg.Horizon = units.Hours(hours)
		}
		if len(parts) == 4 {
			if parts[3] != "observe" {
				return nil, fmt.Errorf("cli: bad whatif policy suffix %q (want observe)", parts[3])
			}
			cfg.Observe = true
		}
		return core.NewTuner(core.WhatIf(whatif.NewPlanner(cfg))), nil
	default:
		return nil, fmt.Errorf("cli: unknown policy %q (accepted: %s)",
			spec, strings.Join(PolicySpecs, ", "))
	}
}

// parseScorers reads a metric spec's NAME=WEIGHT+NAME=WEIGHT... scorer
// list. '+' joins the terms because policy lists split on commas.
func parseScorers(list string) ([]core.Scorer, error) {
	var out []core.Scorer
	for _, term := range strings.Split(list, "+") {
		name, weight, ok := strings.Cut(term, "=")
		v, err := strconv.ParseFloat(weight, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("bad scorer %q (want NAME=WEIGHT)", term)
		}
		sc := core.Scorer{Name: name, Weight: v}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// TournamentPolicies is the default cross-trace tournament zoo: every
// fixed classic policy plus the paper's metric-aware and adaptive
// schemes, so league tables rank the paper's contribution against the
// field by construction. Each entry is a valid ParsePolicy spec.
var TournamentPolicies = []string{
	"fcfs", "sjf", "ljf", "smallest", "largest",
	"wfp", "unicef", "fairshare", "easy", "conservative",
	"metric:0.5:4", "adaptive:bf:1000", "adaptive:2d:1000", "whatif:blend",
}

// ParsePolicyList expands a policy-list spec into individual policy
// specs:
//
//	tournament       the default tournament zoo (TournamentPolicies)
//	SPEC,SPEC,...    comma-separated ParsePolicy specs
//
// Every returned spec is validated through ParsePolicy, so callers can
// instantiate fresh schedulers per run without re-checking errors.
// Duplicate specs are rejected: a league table keyed by policy cannot
// hold the same contender twice.
func ParsePolicyList(spec string) ([]string, error) {
	var specs []string
	if spec == "" || spec == "tournament" {
		specs = append(specs, TournamentPolicies...)
	} else {
		for _, p := range strings.Split(spec, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, fmt.Errorf("cli: empty policy in list %q", spec)
			}
			specs = append(specs, p)
		}
	}
	seen := make(map[string]bool, len(specs))
	for _, p := range specs {
		if seen[p] {
			return nil, fmt.Errorf("cli: duplicate policy %q in list %q", p, spec)
		}
		seen[p] = true
		if _, err := ParsePolicy(p); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// AdaptivePolicySpec reports whether the spec names one of the paper's
// metric-aware/adaptive schemes (as opposed to the fixed classic zoo) —
// the tournament highlights these rows against the field.
func AdaptivePolicySpec(spec string) bool {
	return strings.HasPrefix(spec, "metric:") ||
		strings.HasPrefix(spec, "adaptive:") || spec == "whatif" ||
		strings.HasPrefix(spec, "whatif:")
}
