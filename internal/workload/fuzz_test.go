package workload

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzSWF drives the SWF parser with arbitrary bytes and asserts its
// contract: every failure is a located *SWFError (or a wrapped scanner
// error), and every success yields Validate-clean jobs sorted by
// (submit, id) with submit times rebased to zero — which must then
// survive a WriteSWF/ReadSWF round trip unchanged.
func FuzzSWF(f *testing.F) {
	f.Add([]byte(SampleSWF))
	f.Add([]byte("; comment only\n\n"))
	f.Add([]byte("1 0 -1 100 4 -1 -1 4 200 -1 1 7 -1 -1 -1 -1 -1 -1\n"))
	f.Add([]byte("1 0 -1 100 4\n"))                                      // short record
	f.Add([]byte("x 0 -1 100 4 -1 -1 4 200 -1 1 7 -1 -1 -1 -1 -1 -1\n")) // non-integer
	f.Add([]byte("1 0 -1 -5 4 -1 -1 4 200 -1 1 7 -1 -1 -1 -1 -1 -1\n"))  // below -1
	f.Add([]byte("2 50 -1 10 4 -1 -1 4 5 -1 0 7 -1 -1 -1 -1 -1 -1\n" +   // walltime < runtime
		"1 50 -1 10 8 -1 -1 8 5 -1 1 7 -1 -1 -1 -1 -1 -1\n")) // same submit, lower id
	f.Add([]byte("-3 0 -1 10 4 -1 -1 4 20 -1 1 7 -1 -1 -1 -1 -1 -1\n")) // unusable id
	f.Add([]byte("1 0 -1 10 9223372036854775807 -1 -1 -1 20 -1 1 7 -1 -1 -1 -1 -1 -1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		opt := SWFOptions{ProcsPerNode: 4, MaxNodes: 1 << 20}
		jobs, skipped, err := ReadSWF(bytes.NewReader(data), opt)

		// The streaming parser orders through its reorder heap what
		// ReadSWF orders through Rebase's sort: whenever both succeed
		// (the stream also rejects disorder beyond its slack), they agree.
		src := NewSWFSource(bytes.NewReader(data), opt, DefaultSWFSlack)
		if streamed, serr := Collect(src); err == nil && serr == nil {
			if src.Skipped() != skipped || !reflect.DeepEqual(streamed, jobs) {
				t.Fatalf("stream and ReadSWF disagree: skipped %d vs %d\nstream: %v\nbatch:  %v",
					src.Skipped(), skipped, streamed, jobs)
			}
		}

		if err != nil {
			var se *SWFError
			switch {
			case errors.As(err, &se):
				if se.Line < 1 {
					t.Fatalf("SWFError with non-positive line: %v", err)
				}
			case strings.Contains(err.Error(), "reading SWF"):
				// scanner-level failure (e.g. over-long line) — fine
			default:
				t.Fatalf("error is neither *SWFError nor a scanner error: %v", err)
			}
			return
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		for i, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("parsed job fails validation: %v", err)
			}
			if j.ID <= 0 {
				t.Fatalf("parsed job has unusable id %d", j.ID)
			}
			if i > 0 {
				p := jobs[i-1]
				if j.Submit < p.Submit || (j.Submit == p.Submit && j.ID < p.ID) {
					t.Fatalf("jobs out of (submit, id) order at %d: (%d,%d) after (%d,%d)",
						i, j.Submit, j.ID, p.Submit, p.ID)
				}
			}
		}
		if len(jobs) > 0 && jobs[0].Submit != 0 {
			t.Fatalf("submit times not rebased: first job submits at %d", jobs[0].Submit)
		}

		// Round trip: what WriteSWF renders, ReadSWF must reproduce.
		var buf bytes.Buffer
		if err := WriteSWF(&buf, jobs, "round trip"); err != nil {
			t.Fatalf("WriteSWF: %v", err)
		}
		again, skip2, err := ReadSWF(&buf, SWFOptions{})
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if skip2 != 0 || len(again) != len(jobs) {
			t.Fatalf("round trip kept %d jobs (skipped %d), want %d", len(again), skip2, len(jobs))
		}
		for i, w := range jobs {
			g := again[i]
			same := g.ID == w.ID && g.User == w.User && g.Submit == w.Submit &&
				g.Nodes == w.Nodes && g.Walltime == w.Walltime && g.Runtime == w.Runtime
			if !same {
				t.Fatalf("round trip changed job %d:\n got %+v\nwant %+v", w.ID, *g, *w)
			}
		}
	})
}
