// Package workload produces and consumes job traces.
//
// Two sources are supported:
//
//   - The Standard Workload Format (SWF) used by the Parallel Workloads
//     Archive, so real traces can be replayed directly.
//
//   - A synthetic generator calibrated to the characteristics of the
//     Intrepid Blue Gene/P workload the paper evaluates on (bursty
//     arrivals with diurnal and weekly cycles, partition-quantized job
//     sizes biased to powers of two, heavy-tailed runtimes, and
//     mixture-model walltime overestimates). The generator stands in
//     for the proprietary Argonne trace; see DESIGN.md §3.
package workload

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"amjs/internal/job"
	"amjs/internal/units"
)

// SWF field indices (0-based) of the 18-field Standard Workload Format.
const (
	swfJobID = iota
	swfSubmit
	swfWait
	swfRunTime
	swfAllocProcs
	swfAvgCPU
	swfUsedMem
	swfReqProcs
	swfReqTime
	swfReqMem
	swfStatus
	swfUserID
	swfGroupID
	swfExecutable
	swfQueue
	swfPartition
	swfPrecedingJob
	swfThinkTime
	swfFieldCount
)

// SWFOptions control how an SWF trace is interpreted.
type SWFOptions struct {
	// ProcsPerNode divides the processor counts in the trace to obtain
	// node counts (Intrepid reports 4 cores per node). 0 means 1.
	ProcsPerNode int

	// MaxNodes drops jobs requesting more nodes than the target machine
	// provides. 0 means no limit.
	MaxNodes int

	// KeepFailed keeps jobs whose SWF status is not 1 (completed).
	// Runtimes of failed/cancelled jobs are still honored when positive.
	KeepFailed bool

	// Source labels the trace in error messages (conventionally the
	// file path). Empty renders as "swf".
	Source string
}

// SWFError pinpoints a malformed SWF record: the trace it came from,
// the 1-based line number, the offending field (empty for line-level
// problems such as a short record), and what was wrong with it. It is
// returned, wrapped or not, by ReadSWF and SWFSource; errors.As
// recovers it for programmatic handling.
type SWFError struct {
	Source string // trace label (file path); "" when unknown
	Line   int    // 1-based line number
	Field  string // SWF field name, "" for line-level errors
	Msg    string // what was malformed
}

// Error implements error.
func (e *SWFError) Error() string {
	src := e.Source
	if src == "" {
		src = "swf"
	}
	if e.Field == "" {
		return fmt.Sprintf("workload: %s:%d: %s", src, e.Line, e.Msg)
	}
	return fmt.Sprintf("workload: %s:%d: field %q: %s", src, e.Line, e.Field, e.Msg)
}

// swfFieldNames maps field indices to the Standard Workload Format's
// field names, for error messages.
var swfFieldNames = [swfFieldCount]string{
	swfJobID:        "job number",
	swfSubmit:       "submit time",
	swfWait:         "wait time",
	swfRunTime:      "run time",
	swfAllocProcs:   "allocated processors",
	swfAvgCPU:       "average cpu time",
	swfUsedMem:      "used memory",
	swfReqProcs:     "requested processors",
	swfReqTime:      "requested time",
	swfReqMem:       "requested memory",
	swfStatus:       "status",
	swfUserID:       "user id",
	swfGroupID:      "group id",
	swfExecutable:   "executable",
	swfQueue:        "queue",
	swfPartition:    "partition",
	swfPrecedingJob: "preceding job",
	swfThinkTime:    "think time",
}

// ReadSWF parses an SWF trace. Jobs with unusable fields (non-positive
// runtime or size) are skipped; the number skipped is returned. Submit
// times are rebased so the earliest kept job submits at time 0. For the
// streaming counterpart, see NewSWFSource.
func ReadSWF(r io.Reader, opt SWFOptions) (jobs []*job.Job, skipped int, err error) {
	s := NewSWFSource(r, opt, 0)
	for !s.eof {
		j, err := s.scanRecord()
		if err != nil {
			return nil, s.skipped, err
		}
		if j != nil {
			jobs = append(jobs, j)
		}
	}
	Rebase(jobs)
	return jobs, s.skipped, nil
}

// parseSWFLine parses one SWF line. It returns (nil, false, nil) for
// comments and blank lines, (nil, true, nil) for records that are
// syntactically valid but unusable under the options, and an error for
// malformed records.
func parseSWFLine(raw string, lineNo, ppn int, opt SWFOptions) (j *job.Job, skip bool, err error) {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, ";") {
		return nil, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < swfFieldCount {
		return nil, false, &SWFError{
			Source: opt.Source, Line: lineNo,
			Msg: fmt.Sprintf("%d fields, want %d", len(fields), swfFieldCount),
		}
	}
	var ferr *SWFError
	get := func(i int) int64 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil && ferr == nil {
			ferr = &SWFError{
				Source: opt.Source, Line: lineNo, Field: swfFieldNames[i],
				Msg: fmt.Sprintf("not an integer: %q", fields[i]),
			}
		}
		return v
	}
	id := get(swfJobID)
	submit := get(swfSubmit)
	runSec := get(swfRunTime)
	reqProcs := get(swfReqProcs)
	allocProcs := get(swfAllocProcs)
	reqTime := get(swfReqTime)
	status := get(swfStatus)
	userID := get(swfUserID)
	if ferr != nil {
		return nil, false, ferr
	}
	// -1 is the format's "unknown" sentinel; anything more negative is
	// not a valid SWF value and signals a corrupt record rather than a
	// merely unusable one.
	for _, f := range []struct {
		idx int
		v   int64
	}{{swfRunTime, runSec}, {swfReqProcs, reqProcs}, {swfAllocProcs, allocProcs}, {swfReqTime, reqTime}} {
		if f.v < -1 {
			return nil, false, &SWFError{
				Source: opt.Source, Line: lineNo, Field: swfFieldNames[f.idx],
				Msg: fmt.Sprintf("negative value %d (only -1 may mark unknown)", f.v),
			}
		}
	}

	procs := reqProcs
	if procs <= 0 {
		procs = allocProcs
	}
	if !opt.KeepFailed && status != 1 && status != 0 {
		return nil, true, nil
	}
	if runSec <= 0 || procs <= 0 || submit < 0 {
		return nil, true, nil
	}
	// Job ids must be positive (0 is the engine's "no job" sentinel), and
	// a processor count beyond any real machine would overflow the node
	// arithmetic below. Both mark unusable records, not corrupt ones.
	if id <= 0 || procs > 1<<31 {
		return nil, true, nil
	}
	nodes := int((procs + int64(ppn) - 1) / int64(ppn))
	if opt.MaxNodes > 0 && nodes > opt.MaxNodes {
		return nil, true, nil
	}
	wall := units.Duration(reqTime)
	if wall < units.Duration(runSec) {
		wall = units.Duration(runSec) // distrust bad estimates, never truncate runtimes
	}
	return &job.Job{
		ID:       int(id),
		User:     "u" + strconv.FormatInt(userID, 10),
		Submit:   units.Time(submit),
		Nodes:    nodes,
		Walltime: wall,
		Runtime:  units.Duration(runSec),
	}, false, nil
}

// WriteSWF renders jobs as an SWF trace. Unknown fields are written as
// -1 per the format convention.
func WriteSWF(w io.Writer, jobs []*job.Job, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
			if _, err := fmt.Fprintf(bw, "; %s\n", line); err != nil {
				return err
			}
		}
	}
	for _, j := range jobs {
		wait := int64(-1)
		status := int64(1)
		if j.State == job.Running || j.State == job.Finished || j.State == job.Killed {
			wait = int64(j.Wait())
		}
		user := strings.TrimPrefix(j.User, "u")
		if _, err := strconv.Atoi(user); err != nil {
			user = "-1"
		}
		_, err := fmt.Fprintf(bw, "%d %d %d %d %d -1 -1 %d %d -1 %d %s -1 -1 -1 -1 -1 -1\n",
			j.ID, int64(j.Submit), wait, int64(j.Runtime), j.Nodes, j.Nodes,
			int64(j.Walltime), status, user)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Rebase shifts submit times so the earliest job submits at 0 and sorts
// jobs by (submit, ID), keeping file order among ties. A trace that is
// already in order — the Parallel Workloads Archive common case — pays
// one linear scan and skips the sort.
func Rebase(jobs []*job.Job) {
	if len(jobs) == 0 {
		return
	}
	base, inOrder := jobs[0].Submit, true
	for i, j := range jobs {
		base = min(base, j.Submit)
		if i > 0 && compareSubmitID(jobs[i-1], j) > 0 {
			inOrder = false
		}
	}
	for _, j := range jobs {
		j.Submit -= base
	}
	if !inOrder {
		slices.SortStableFunc(jobs, compareSubmitID)
	}
}

// compareSubmitID orders jobs by (submit, ID).
func compareSubmitID(a, b *job.Job) int {
	if c := cmp.Compare(a.Submit, b.Submit); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SampleSWF is a small hand-written SWF fragment used by tests and the
// trace-replay example. It describes ten jobs on a 512-node machine.
const SampleSWF = `; SWF sample trace (synthetic, 512-node machine)
; MaxNodes: 512
; Note: fields are the 18 standard SWF columns
1   0     -1 1800  64  -1 -1  64  3600  -1 1 1 -1 -1 -1 -1 -1 -1
2   60    -1 3600  128 -1 -1 128 7200  -1 1 2 -1 -1 -1 -1 -1 -1
3   120   -1 600   512 -1 -1 512 1800  -1 1 1 -1 -1 -1 -1 -1 -1
4   600   -1 7200  64  -1 -1 64  7200  -1 1 3 -1 -1 -1 -1 -1 -1
5   900   -1 1200  256 -1 -1 256 3600  -1 1 2 -1 -1 -1 -1 -1 -1
6   1800  -1 2400  64  -1 -1 64  3600  -1 1 4 -1 -1 -1 -1 -1 -1
7   2400  -1 900   128 -1 -1 128 1800  -1 1 1 -1 -1 -1 -1 -1 -1
8   3000  -1 5400  512 -1 -1 512 10800 -1 1 5 -1 -1 -1 -1 -1 -1
9   3600  -1 300   64  -1 -1 64  900   -1 1 2 -1 -1 -1 -1 -1 -1
10  4200  -1 1800  256 -1 -1 256 3600  -1 1 3 -1 -1 -1 -1 -1 -1
`
