package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amjs/internal/core"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

func TestParseMachine(t *testing.T) {
	m, err := ParseMachine("intrepid")
	if err != nil || m.TotalNodes() != 40960 {
		t.Errorf("intrepid: %v %v", m, err)
	}
	if m, err := ParseMachine(""); err != nil || m.TotalNodes() != 40960 {
		t.Error("default machine wrong")
	}
	m, err = ParseMachine("flat:1024")
	if err != nil || m.TotalNodes() != 1024 || !strings.HasPrefix(m.Name(), "flat") {
		t.Errorf("flat: %v %v", m, err)
	}
	m, err = ParseMachine("partition:8x64")
	if err != nil || m.TotalNodes() != 512 {
		t.Errorf("partition: %v %v", m, err)
	}
	for _, bad := range []string{"flat:x", "flat:0", "partition:8", "partition:ax2", "nonsense"} {
		if _, err := ParseMachine(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseMachineUnknownEnumeratesSpecs(t *testing.T) {
	_, err := ParseMachine("nonsense")
	if err == nil {
		t.Fatal("nonsense machine accepted")
	}
	for _, doc := range MachineSpecs {
		if !strings.Contains(err.Error(), doc) {
			t.Errorf("unknown-machine error omits %q: %v", doc, err)
		}
	}
}

func TestParseWorkloadPresets(t *testing.T) {
	for _, spec := range []string{"intrepid", "intrepid-heavy", "mini", ""} {
		jobs, name, err := ParseWorkload(spec, 1, 50)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if len(jobs) == 0 || len(jobs) > 50 || name == "" {
			t.Errorf("%q: %d jobs, name %q", spec, len(jobs), name)
		}
	}
	if _, _, err := ParseWorkload("bogus", 1, 0); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestParseWorkloadSWF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.swf")
	if err := os.WriteFile(path, []byte(workload.SampleSWF), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, name, err := ParseWorkload("swf:"+path, 0, 0)
	if err != nil || len(jobs) != 10 {
		t.Fatalf("swf: %d jobs, %v", len(jobs), err)
	}
	if !strings.Contains(name, "trace.swf") {
		t.Errorf("name = %q", name)
	}
	// Suffix form and MaxJobs.
	jobs, _, err = ParseWorkload(path, 0, 3)
	if err != nil || len(jobs) != 3 {
		t.Errorf("suffix form: %d jobs, %v", len(jobs), err)
	}
	if _, _, err := ParseWorkload("swf:/does/not/exist", 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]string{
		"":             "easy-fcfs",
		"easy":         "easy-fcfs",
		"fcfs":         "fcfs",
		"sjf":          "sjf",
		"ljf":          "ljf",
		"firstfit":     "firstfit",
		"conservative": "conservative-fcfs",
		"wfp":          "wfp",
		"dynp":         "dynp",
	} {
		s, err := ParsePolicy(spec)
		if err != nil || s.Name() != want {
			t.Errorf("%q: got %v, %v", spec, s, err)
		}
	}
	s, err := ParsePolicy("metric:0.5:4")
	if err != nil {
		t.Fatal(err)
	}
	ma := s.(*core.MetricAware)
	if ma.BF != 0.5 || ma.W != 4 || ma.Conservative {
		t.Errorf("metric parse wrong: %+v", ma)
	}
	s, err = ParsePolicy("metric:1:1:conservative")
	if err != nil || !s.(*core.MetricAware).Conservative {
		t.Errorf("conservative metric parse wrong: %v %v", s, err)
	}
	s, err = ParsePolicy("whatif:bsld:4:observe")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "adaptive(whatif)" {
		t.Errorf("whatif policy Name = %q", s.Name())
	}
	p, ok := s.(*core.Tuner).WhatIfPlanner()
	if !ok {
		t.Fatal("whatif policy has no planner")
	}
	if cfg := p.Config(); cfg.Objective != whatif.BSLD ||
		cfg.Horizon != 4*units.Hour || !cfg.Observe {
		t.Errorf("whatif parse wrong: %+v", p.Config())
	}
	for _, spec := range []string{
		"adaptive:bf", "adaptive:w", "adaptive:2d", "adaptive:bf:500",
		"fairshare", "fairshare:12", "relaxed:15", "relaxed:0",
		"whatif", "whatif:bsld", "whatif:util:4", "whatif:blend:0.5:observe",
	} {
		if _, err := ParsePolicy(spec); err != nil {
			t.Errorf("%q rejected: %v", spec, err)
		}
	}
	bad := []string{
		"metric:2:1", "metric:0.5:0", "metric:0.5", "metric:0.5:1:bogus",
		"adaptive", "adaptive:x", "adaptive:bf:-1", "nonsense:1",
		"relaxed", "relaxed:x", "relaxed:-1", "fairshare:0", "fairshare:x",
		"whatif:bogus", "whatif:bsld:0", "whatif:bsld:x", "whatif:bsld:1:commit",
		"whatif:bsld:1:observe:extra",
	}
	for _, spec := range bad {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("accepted %q", spec)
		}
	}
}

// TestParsePolicyRoundTrip walks every documented spec string —
// the fixed zoo plus one concrete instantiation of each parameterized
// family — and demands each parses, names itself, and clones cleanly.
func TestParsePolicyRoundTrip(t *testing.T) {
	concrete := map[string]string{
		"fairshare[:HALFLIFE-HOURS]":                   "fairshare:12",
		"relaxed:SLACK-MINUTES":                        "relaxed:15",
		"metric:{BF,NAME=WEIGHT+...}:W[:conservative]": "metric:wait=0.5+large=0.25+short=0.25:4:conservative",
		"adaptive:{bf,w,2d}[:THRESHOLD]":               "adaptive:2d:500",
		"whatif[:OBJ[:HORIZON-H[:observe]]]":           "whatif:bsld:4:observe",
	}
	for _, doc := range PolicySpecs {
		spec := doc
		if c, ok := concrete[doc]; ok {
			spec = c
		}
		s, err := ParsePolicy(spec)
		if err != nil {
			t.Errorf("documented spec %q (from %q) rejected: %v", spec, doc, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%q: empty policy name", spec)
		}
		if c := s.Clone(); c == nil || c.Name() != s.Name() {
			t.Errorf("%q: bad clone", spec)
		}
	}
}

func TestParsePolicyUnknownEnumeratesSpecs(t *testing.T) {
	_, err := ParsePolicy("nonsense")
	if err == nil {
		t.Fatal("nonsense policy accepted")
	}
	for _, doc := range PolicySpecs {
		if !strings.Contains(err.Error(), doc) {
			t.Errorf("unknown-policy error omits %q: %v", doc, err)
		}
	}
}

func TestParsePolicyZoo(t *testing.T) {
	for spec, want := range map[string]string{
		"unicef":   "unicef",
		"largest":  "largest",
		"smallest": "smallest",
	} {
		s, err := ParsePolicy(spec)
		if err != nil || s.Name() != want {
			t.Errorf("%q: got %v, %v", spec, s, err)
		}
	}
}

func TestParsePolicyList(t *testing.T) {
	for _, spec := range []string{"", "tournament"} {
		specs, err := ParsePolicyList(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if len(specs) < 8 {
			t.Fatalf("%q: only %d policies", spec, len(specs))
		}
		adaptive := 0
		for _, p := range specs {
			if AdaptivePolicySpec(p) {
				adaptive++
			}
		}
		if adaptive < 2 {
			t.Errorf("tournament zoo has %d adaptive schemes, want >= 2", adaptive)
		}
	}
	got, err := ParsePolicyList("fcfs, easy ,metric:0.5:4")
	if err != nil || len(got) != 3 || got[0] != "fcfs" || got[1] != "easy" || got[2] != "metric:0.5:4" {
		t.Errorf("explicit list: %v, %v", got, err)
	}
	for _, bad := range []string{"fcfs,,easy", "fcfs,bogus", "fcfs,fcfs", "bogus"} {
		if _, err := ParsePolicyList(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestAdaptivePolicySpec(t *testing.T) {
	for spec, want := range map[string]bool{
		"metric:0.5:4": true, "adaptive:2d:1000": true, "whatif": true,
		"whatif:blend": true, "fcfs": false, "easy": false, "": false,
		"fairshare": false, "unicef": false,
	} {
		if got := AdaptivePolicySpec(spec); got != want {
			t.Errorf("AdaptivePolicySpec(%q) = %v, want %v", spec, got, want)
		}
	}
}

func TestParseMachineTorus(t *testing.T) {
	m, err := ParseMachine("torus:2x2x2x64")
	if err != nil || m.TotalNodes() != 512 {
		t.Errorf("torus parse: %v %v", m, err)
	}
	m, err = ParseMachine("intrepid-torus")
	if err != nil || m.TotalNodes() != 40960 {
		t.Errorf("intrepid-torus parse: %v %v", m, err)
	}
	for _, bad := range []string{"torus:2x2x2", "torus:2x2x2x0", "torus:axbxcxd"} {
		if _, err := ParseMachine(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParsePolicyScorers(t *testing.T) {
	s, err := ParsePolicy("metric:wait=0.5+large=0.25+short=0.25:4")
	if err != nil {
		t.Fatalf("scorer parse: %v", err)
	}
	if got, want := s.Name(), "multi-metric(wait:0.5,large:0.25,short:0.25,w=4)"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
	s, err = ParsePolicy("metric:lowcost=1:2:conservative")
	if err != nil || !s.(*core.MetricAware).Conservative {
		t.Errorf("conservative scorer parse wrong: %v %v", s, err)
	}
	for _, bad := range []string{
		"metric:wait=NaN:4", "metric:wait=Inf:4", "metric:wait=-Inf+short=1:4",
		"metric:age=1:4", "metric:wait=0.5+:4", "metric:wait:4", "metric:=1:4",
		"metric:wait=0.5+short:4", "metric:wait=1e309:4", "metric:wait=1:0",
		"utility:(wait/walltime)^3*nodes",
	} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
