package workload

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"amjs/internal/units"
)

// swfLine renders one syntactically valid 18-field record.
const swfGoodLine = "1 0 -1 1800 64 -1 -1 64 3600 -1 1 1 -1 -1 -1 -1 -1 -1\n"

// Malformed records must surface as SWFError with the trace label, the
// 1-based line number, and the offending field by its SWF name.
func TestReadSWFErrors(t *testing.T) {
	cases := map[string]struct {
		trace     string
		wantLine  int
		wantField string // "" for line-level errors
		wantMsg   string // substring of the message
	}{
		"short record": {
			trace:     "; header\n" + swfGoodLine + "2 60 -1 3600 128\n",
			wantLine:  3,
			wantField: "",
			wantMsg:   "5 fields, want 18",
		},
		"non-integer job id": {
			trace:     "abc 0 -1 1800 64 -1 -1 64 3600 -1 1 1 -1 -1 -1 -1 -1 -1\n",
			wantLine:  1,
			wantField: "job number",
			wantMsg:   `not an integer: "abc"`,
		},
		"non-integer processors": {
			trace:     swfGoodLine + "2 60 -1 3600 128 -1 -1 many 7200 -1 1 2 -1 -1 -1 -1 -1 -1\n",
			wantLine:  2,
			wantField: "requested processors",
			wantMsg:   `not an integer: "many"`,
		},
		"negative runtime": {
			trace:     swfGoodLine + "2 60 -1 -7 128 -1 -1 128 7200 -1 1 2 -1 -1 -1 -1 -1 -1\n",
			wantLine:  2,
			wantField: "run time",
			wantMsg:   "negative value -7 (only -1 may mark unknown)",
		},
		"negative requested time": {
			trace:     "1 0 -1 1800 64 -1 -1 64 -3600 -1 1 1 -1 -1 -1 -1 -1 -1\n",
			wantLine:  1,
			wantField: "requested time",
			wantMsg:   "negative value -3600",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := ReadSWF(strings.NewReader(tc.trace), SWFOptions{Source: "trace.swf"})
			var se *SWFError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SWFError", err)
			}
			if se.Source != "trace.swf" {
				t.Errorf("Source = %q, want %q", se.Source, "trace.swf")
			}
			if se.Line != tc.wantLine {
				t.Errorf("Line = %d, want %d", se.Line, tc.wantLine)
			}
			if se.Field != tc.wantField {
				t.Errorf("Field = %q, want %q", se.Field, tc.wantField)
			}
			if !strings.Contains(se.Msg, tc.wantMsg) {
				t.Errorf("Msg = %q, want it to contain %q", se.Msg, tc.wantMsg)
			}
			if !strings.Contains(err.Error(), "trace.swf:") {
				t.Errorf("rendered error %q does not carry the source label", err)
			}
		})
	}
}

// The -1 "unknown" sentinel must stay a skip, not an error: only values
// below -1 mark a corrupt record.
func TestReadSWFUnknownSentinelSkips(t *testing.T) {
	trace := swfGoodLine +
		"2 60 -1 -1 128 -1 -1 128 7200 -1 1 2 -1 -1 -1 -1 -1 -1\n" // unknown runtime
	jobs, skipped, err := ReadSWF(strings.NewReader(trace), SWFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || skipped != 1 {
		t.Fatalf("jobs/skipped = %d/%d, want 1/1", len(jobs), skipped)
	}
}

// The empty Source renders as "swf" so errors are still labelled.
func TestSWFErrorDefaultSource(t *testing.T) {
	_, _, err := ReadSWF(strings.NewReader("1 2 3\n"), SWFOptions{})
	if err == nil || !strings.HasPrefix(err.Error(), "workload: swf:1:") {
		t.Fatalf("err = %v, want workload: swf:1: prefix", err)
	}
}

// A read failure names the trace and wraps the reader's error.
func TestReadSWFReadFailure(t *testing.T) {
	boom := errors.New("disk gone")
	_, _, err := ReadSWF(iotest.ErrReader(boom), SWFOptions{Source: "trace.swf"})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "reading trace.swf") {
		t.Fatalf("err = %v, want a wrapped read error naming trace.swf", err)
	}
}

// A record arriving more out of order than the reorder slack is an
// error from the streaming source, attributed to the submit-time field
// of the offending line.
func TestSWFSourceDisorderErrorDetails(t *testing.T) {
	trace := "; header\n" +
		"1 10000 -1 1800 64 -1 -1 64 3600 -1 1 1 -1 -1 -1 -1 -1 -1\n" +
		"2 20000 -1 1800 64 -1 -1 64 3600 -1 1 1 -1 -1 -1 -1 -1 -1\n" +
		// 600s slack: job 1 (submit 10000) is released once job 2 reads
		// ahead past the slack; this record then precedes the emitted
		// horizon by far more than the slack can absorb.
		"3 9000 -1 1800 64 -1 -1 64 3600 -1 1 1 -1 -1 -1 -1 -1 -1\n"
	src := NewSWFSource(strings.NewReader(trace), SWFOptions{Source: "stream.swf"}, 600*units.Second)
	var firstErr error
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			firstErr = err
			break
		}
	}
	var se *SWFError
	if !errors.As(firstErr, &se) {
		t.Fatalf("err = %v, want *SWFError", firstErr)
	}
	if se.Source != "stream.swf" || se.Line != 4 || se.Field != "submit time" {
		t.Errorf("SWFError = %+v, want stream.swf:4 field submit time", se)
	}
	if !strings.Contains(se.Msg, "out of order by more than the") {
		t.Errorf("Msg = %q, want reorder-slack explanation", se.Msg)
	}
}
