package workload

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"amjs/internal/units"
)

// Streaming must not retain the whole trace: a second Next after EOF
// stays EOF, and the source is single-pass.
func TestStreamEOFSticky(t *testing.T) {
	cfg := Mini(1)
	src, err := cfg.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestSWFSourceMatchesReadSWF(t *testing.T) {
	opt := SWFOptions{ProcsPerNode: 1}
	want, wantSkipped, err := ReadSWF(strings.NewReader(SampleSWF), opt)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSWFSource(strings.NewReader(SampleSWF), opt, DefaultSWFSlack)
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if src.Skipped() != wantSkipped {
		t.Errorf("Skipped() = %d, want %d", src.Skipped(), wantSkipped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming SWF parse differs from batch parse:\nstream: %v\nbatch:  %v", got, want)
	}
}

// makeSWFLine renders one 18-field record with the given id, submit,
// runtime, and processor count.
func makeSWFLine(id int, submit, run, procs int) string {
	return fmt.Sprintf("%d %d -1 %d %d -1 -1 %d %d -1 1 1 -1 -1 -1 -1 -1 -1\n",
		id, submit, run, procs, procs, run*2)
}

func TestSWFSourceReordersWithinSlack(t *testing.T) {
	// Records out of submit order, but never by more than 100 s.
	var b strings.Builder
	b.WriteString(makeSWFLine(1, 50, 600, 64))
	b.WriteString(makeSWFLine(2, 0, 600, 64)) // 50 s behind the max seen
	b.WriteString(makeSWFLine(3, 120, 600, 64))
	b.WriteString(makeSWFLine(4, 80, 600, 64)) // 40 s behind
	b.WriteString(makeSWFLine(5, 300, 600, 64))
	trace := b.String()
	opt := SWFOptions{ProcsPerNode: 1}

	want, _, err := ReadSWF(strings.NewReader(trace), opt)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSWFSource(strings.NewReader(trace), opt, 100*units.Second)
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reordered streaming parse differs from batch parse:\nstream: %v\nbatch:  %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Submit < got[i-1].Submit {
			t.Fatalf("emitted submits not nondecreasing at %d: %v after %v", i, got[i].Submit, got[i-1].Submit)
		}
	}
}

func TestSWFSourceDisorderBeyondSlack(t *testing.T) {
	traces := map[string][]string{
		// Job 3 precedes an already-emitted record.
		"earlier submit": {makeSWFLine(1, 100, 600, 64), makeSWFLine(2, 300, 600, 64), makeSWFLine(3, 50, 600, 64)},
		// Job 1 ties with the emitted job 2 on submit but sorts before it.
		"lower ID at an emitted submit": {makeSWFLine(2, 100, 600, 64), makeSWFLine(4, 300, 600, 64), makeSWFLine(1, 100, 600, 64)},
	}
	for name, lines := range traces {
		// The second record pushes the first out of the buffer.
		src := NewSWFSource(strings.NewReader(strings.Join(lines, "")), SWFOptions{ProcsPerNode: 1}, 100*units.Second)
		if _, err := Collect(src); err == nil {
			t.Errorf("%s: want error for disorder beyond the slack window, got nil", name)
		}
	}
}

// A slack near math.MaxInt64 must not overflow the release test: two
// records out of order parse as they do under any slack that covers
// their disorder.
func TestSWFSourceHugeSlack(t *testing.T) {
	trace := makeSWFLine(1, 100, 600, 64) + makeSWFLine(2, 50, 600, 64)
	opt := SWFOptions{ProcsPerNode: 1}
	want, err := Collect(NewSWFSource(strings.NewReader(trace), opt, 1000*units.Second))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewSWFSource(strings.NewReader(trace), opt, math.MaxInt64))
	if err != nil {
		t.Fatalf("slack MaxInt64: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slack MaxInt64 parse differs from slack 1000 s:\n got %v\nwant %v", got, want)
	}
}

func TestSliceSourceRoundTrip(t *testing.T) {
	jobs, _, err := ReadSWF(strings.NewReader(SampleSWF), SWFOptions{ProcsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(SliceSource(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jobs) {
		t.Fatal("SliceSource round trip altered the trace")
	}
}
