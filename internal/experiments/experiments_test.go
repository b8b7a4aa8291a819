package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func testOpts(t *testing.T) (Options, string) {
	t.Helper()
	dir := t.TempDir()
	var logBuf bytes.Buffer
	return Options{
		Seed:   42,
		Scale:  ScaleTest,
		OutDir: dir,
		Out:    &bytes.Buffer{},
		Log:    func(f string, a ...any) { logBuf.WriteString(" ") },
	}, dir
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return recs
}

func TestPlatformScales(t *testing.T) {
	for _, sc := range []Scale{ScalePaper, ScaleQuick, ScaleTest, ""} {
		pf, err := (Options{Scale: sc, Seed: 1}).platform()
		if err != nil {
			t.Errorf("scale %q: %v", sc, err)
			continue
		}
		if pf.machine() == nil || pf.plotHorizon <= 0 {
			t.Errorf("scale %q: incomplete platform", sc)
		}
		if err := pf.config.Validate(); err != nil {
			t.Errorf("scale %q: bad config: %v", sc, err)
		}
	}
	if _, err := (Options{Scale: "bogus"}).platform(); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestFig3(t *testing.T) {
	opt, dir := testOpts(t)
	if err := Fig3(opt); err != nil {
		t.Fatal(err)
	}
	wait := readCSV(t, filepath.Join(dir, "fig3a_wait.csv"))
	if len(wait) != 6 { // header + 5 BF rows
		t.Fatalf("fig3a rows = %d", len(wait))
	}
	if len(wait[0]) != 6 { // BF + 5 windows
		t.Fatalf("fig3a cols = %d", len(wait[0]))
	}
	for _, row := range wait[1:] {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 {
				t.Errorf("bad wait cell %q", cell)
			}
		}
	}
	unfair := readCSV(t, filepath.Join(dir, "fig3b_unfair.csv"))
	for _, row := range unfair[1:] {
		for _, cell := range row[1:] {
			if _, err := strconv.Atoi(cell); err != nil {
				t.Errorf("bad unfair cell %q", cell)
			}
		}
	}
	loc := readCSV(t, filepath.Join(dir, "fig3c_loc.csv"))
	if len(loc) != 6 { // header + 5 window rows
		t.Fatalf("fig3c rows = %d", len(loc))
	}
	for _, row := range loc[1:] {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 || v > 100 {
				t.Errorf("bad LoC cell %q", cell)
			}
		}
	}
}

func TestFig4(t *testing.T) {
	opt, dir := testOpts(t)
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Fig4(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 4(a)", "Fig 4(b)", "adaptive", "BF=1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
	recs := readCSV(t, filepath.Join(dir, "fig4_queue_depth.csv"))
	if len(recs) < 3 || len(recs[0]) != 5 { // hours + 4 series
		t.Fatalf("fig4 csv shape: %dx%d", len(recs), len(recs[0]))
	}
	for _, name := range []string{"fig4_summary.csv", "fig4a_linear.svg", "fig4b_log.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
}

func TestFig5(t *testing.T) {
	opt, dir := testOpts(t)
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Fig5(opt); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5a_util_static.csv", "fig5b_util_adaptive.csv", "fig5_summary.csv", "fig5a_static.svg", "fig5b_adaptive.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
	recs := readCSV(t, filepath.Join(dir, "fig5a_util_static.csv"))
	if got := recs[0]; got[1] != "instant" || got[4] != "24H" {
		t.Errorf("fig5 header wrong: %v", got)
	}
	// Utilization values must lie within [0, 100].
	for _, row := range recs[1:] {
		for _, cell := range row[1:] {
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 || v > 100.0001 {
				t.Errorf("bad util cell %q", cell)
			}
		}
	}
}

func TestFig6(t *testing.T) {
	opt, dir := testOpts(t)
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Fig6(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2D adaptive") {
		t.Error("fig6 output missing 2D series")
	}
	for _, name := range []string{"fig6a_queue_depth.csv", "fig6b_util_2d.csv", "fig6_summary.csv", "fig6a_queue_depth.svg", "fig6b_util_2d.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
}

func TestTable2(t *testing.T) {
	opt, dir := testOpts(t)
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Table2(opt); err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, filepath.Join(dir, "table2.csv"))
	if len(recs) != 8 { // header + 7 configurations
		t.Fatalf("table2 rows = %d", len(recs))
	}
	names := []string{"BF=1/W=1", "BF=1/W=4", "BF=0.5/W=1", "BF=0.5/W=4", "BF Adapt.", "W Adapt.", "2D Adapt."}
	for i, want := range names {
		if recs[i+1][0] != want {
			t.Errorf("row %d = %q, want %q", i+1, recs[i+1][0], want)
		}
	}
	// The second (heavy) workload and baselines must exist too.
	for _, name := range []string{"table2_heavy.csv", "table2_baselines.csv", "table2_baselines_heavy.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
	base := readCSV(t, filepath.Join(dir, "table2_baselines.csv"))
	if len(base) != 7 { // header + 6 baselines
		t.Errorf("baseline rows = %d", len(base))
	}
}

func TestTable3(t *testing.T) {
	opt, dir := testOpts(t)
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Table3(opt); err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, filepath.Join(dir, "table3.csv"))
	if len(recs) != 6 { // header + W=1..5
		t.Fatalf("table3 rows = %d", len(recs))
	}
	for _, row := range recs[1:] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad time cell %q", row[1])
		}
	}
	// The permutation search must make W=5 costlier than W=1. The two
	// passes' wall times are tens of microseconds at this scale, too
	// close to order reliably, so the check reads the work itself: W=1
	// never searches, and W=5's pass on the same state does.
	pf, err := opt.platform()
	if err != nil {
		t.Fatal(err)
	}
	m, queue, err := table3State(pf)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := table3Pass(m, queue, 1)
	w5, _ := table3Pass(m, queue, 5)
	if s1, s5 := w1.SearchStats(), w5.SearchStats(); s1.Nodes != 0 || s5.Nodes <= s1.Nodes || s5.Probes <= s1.Probes {
		t.Errorf("window search work: W=1 %+v, W=5 %+v; want none at W=1 and more nodes and probes at W=5", s1, s5)
	}
}

func TestAllOnTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opt, dir := testOpts(t)
	if err := All(opt); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 12 {
		t.Errorf("only %d artifacts produced", len(entries))
	}
}

func TestNoFilesWithoutOutDir(t *testing.T) {
	opt, _ := testOpts(t)
	opt.OutDir = ""
	if err := Table3(opt); err != nil {
		t.Fatal(err)
	}
}
