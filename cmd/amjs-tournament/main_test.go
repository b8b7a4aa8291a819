package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"amjs/internal/workload"
)

func TestTournamentRuns(t *testing.T) {
	dir := t.TempDir()
	swfPath := filepath.Join(dir, "trace.swf")
	if err := os.WriteFile(swfPath, []byte(workload.SampleSWF), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "league.csv")
	jsonPath := filepath.Join(dir, "league.json")
	txtPath := filepath.Join(dir, "league.txt")

	var out bytes.Buffer
	err := run(&out, "partition:8x64", "mini,swf:"+swfPath, "3", "fcfs,easy,sjf,unicef",
		30, true, 2, txtPath, csvPath, jsonPath)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "League standings") {
		t.Errorf("stdout missing standings:\n%s", out.String())
	}
	txt, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != out.String() {
		t.Error("-txt artifact differs from stdout")
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 { // header + 4 policies x 2 traces
		t.Errorf("csv rows = %d", len(recs))
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces    []string `json:"traces"`
		Standings []struct {
			Policy string `json:"policy"`
			Ranks  []int  `json:"ranks"`
		} `json:"standings"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 2 || len(doc.Standings) != 4 || len(doc.Standings[0].Ranks) != 2 {
		t.Errorf("league json shape wrong: %+v", doc)
	}
}

// A BF × W grid (the paper's Fig. 3 study) is a list of metric: specs:
// a 2×2 grid with fairness on yields one cell per configuration, each
// with a numeric unfair count.
func TestTournamentMetricGrid(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "grid.csv")
	var out bytes.Buffer
	err := run(&out, "partition:8x64", "mini", "3", "metric:1:1,metric:1:2,metric:0.5:1,metric:0.5:2",
		50, true, 2, "", csvPath, "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // header + 2x2 grid
		t.Fatalf("csv rows = %d", len(recs))
	}
	col := slices.Index(recs[0], "unfair")
	if col < 0 {
		t.Fatalf("csv header has no unfair column: %v", recs[0])
	}
	for _, r := range recs[1:] {
		if _, err := strconv.Atoi(r[col]); err != nil {
			t.Errorf("%s: unfair count %q is not a number", r[2], r[col])
		}
	}
}

// TestTournamentDeterministicAcrossWorkers is the command-level contract
// from the issue: identical artifacts whatever the worker count.
func TestTournamentDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		var out bytes.Buffer
		if err := run(&out, "flat:256", "mini", "7", "fcfs,easy,sjf", 25,
			false, workers, "", "", ""); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.String()
	}
	if render(1) != render(8) {
		t.Error("league differs between workers=1 and workers=8")
	}
}

func TestTraceNaming(t *testing.T) {
	traces, err := buildTraces([]string{"flat:64", "flat:128"}, []string{"mini"}, []int64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("trace count = %d", len(traces))
	}
	want := map[string]bool{
		"mini@flat:64#1": true, "mini@flat:64#2": true,
		"mini@flat:128#1": true, "mini@flat:128#2": true,
	}
	for _, tr := range traces {
		if !want[tr.Name] {
			t.Errorf("unexpected trace name %q", tr.Name)
		}
	}
	single, err := buildTraces([]string{"flat:64"}, []string{"mini"}, []int64{1}, 5)
	if err != nil || len(single) != 1 || single[0].Name != "mini" {
		t.Errorf("single trace naming: %+v, %v", single, err)
	}
}

func TestTournamentErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "flat:64", "mini", "1", "bogus", 5, false, 1, "", "", ""); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := run(&out, "flat:64", "bogus", "1", "fcfs", 5, false, 1, "", "", ""); err == nil {
		t.Error("bogus workload accepted")
	}
	if err := run(&out, "bogus", "mini", "1", "fcfs", 5, false, 1, "", "", ""); err == nil {
		t.Error("bogus machine accepted")
	}
	if err := run(&out, "flat:64", "mini", "x", "fcfs", 5, false, 1, "", "", ""); err == nil {
		t.Error("bad seed accepted")
	}
	if err := run(&out, "", "mini", "1", "fcfs", 5, false, 1, "", "", ""); err == nil {
		t.Error("empty machine list accepted")
	}
}

// A BF × W grid rejects an out-of-range cell (BF > 1 or W < 1) and a
// bad workload or machine, as the grid study's inputs.
func TestTournamentMetricGridErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "flat:8", "mini", "1", "metric:1:1,metric:2:1", 10, false, 1, "", "", ""); err == nil {
		t.Error("BF=2 accepted")
	}
	if err := run(&out, "flat:8", "mini", "1", "metric:1:1,metric:0.5:0", 10, false, 1, "", "", ""); err == nil {
		t.Error("W=0 accepted")
	}
	if err := run(&out, "flat:8", "bogus", "1", "metric:1:1", 10, false, 1, "", "", ""); err == nil {
		t.Error("bogus workload accepted")
	}
	if err := run(&out, "bogus", "mini", "1", "metric:1:1", 10, false, 1, "", "", ""); err == nil {
		t.Error("bogus machine accepted")
	}
}
