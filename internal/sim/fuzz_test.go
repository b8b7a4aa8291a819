package sim

import (
	"bytes"
	"errors"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// fuzzConfig decodes the fuzz input's 5-byte header into an engine
// configuration: machine model, policy, scheduling cadence, fairness
// oracle, and checkpoint interval. Every run is Paranoid, so the
// schedule-validity oracle audits whatever the fuzzer constructs.
func fuzzConfig(h [5]byte) Config {
	cfg := Config{Paranoid: true}
	switch h[0] % 3 {
	case 0:
		cfg.Machine = machine.NewFlat(512)
	case 1:
		cfg.Machine = machine.NewPartition(8, 64)
	case 2:
		cfg.Machine = machine.NewTorus(2, 2, 2, 64)
	}
	// Moving from %6 to %8 left every committed corpus entry's selector
	// unchanged (no stored header byte maps differently under the two
	// moduli), so cases 6 and 7 only extend the space.
	switch h[1] % 8 {
	case 0:
		cfg.Scheduler = core.NewMetricAware(0.5, 3)
	case 1:
		cfg.Scheduler = core.NewTuner(core.PaperBFScheme(30), core.PaperWScheme())
	case 2:
		cfg.Scheduler = sched.NewFCFS()
	case 3:
		cfg.Scheduler = sched.NewSJF()
	case 4:
		cfg.Scheduler = sched.NewEASY()
	case 5:
		cfg.Scheduler = sched.NewConservative()
	case 6:
		cfg.Scheduler = sched.NewWFP()
	case 7:
		cfg.Scheduler = sched.NewUNICEF()
	}
	switch h[2] % 3 {
	case 1:
		cfg.SchedulePeriod = 10 * units.Second
	case 2:
		cfg.SchedulePeriod = 30 * units.Second
	}
	cfg.Fairness = h[3]&1 == 1
	// Bit 1 of the flags byte swaps in the what-if tuner (a previously
	// unused bit, so no older corpus entry is remapped): every retune
	// tick then forks rollout engines under whatever cadence and
	// checkpoint grid the fuzzer picked.
	if h[3]&2 == 2 {
		cfg.Scheduler = core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{
			Horizon: units.Hour,
			BFGrid:  []float64{0.5, 1},
			WGrid:   []int{1, 2},
			Workers: 1,
		})))
	}
	cfg.CheckInterval = units.Duration(5+15*int64(h[4]%3)) * units.Minute
	return cfg
}

// fuzzJobs decodes the rest of the input, four bytes per job: submit
// delta, node count (shifted so some exceed the machine and exercise
// rejection), runtime, and a flags byte holding the walltime padding.
func fuzzJobs(data []byte, max int) []*job.Job {
	var jobs []*job.Job
	submit := units.Time(0)
	for i := 0; i+4 <= len(data) && len(jobs) < max; i += 4 {
		b := data[i : i+4]
		submit = submit.Add(units.Duration(b[0]) * 10)
		runtime := units.Duration(int64(b[2])+1) * 90
		jobs = append(jobs, &job.Job{
			ID:       len(jobs) + 1,
			Submit:   submit,
			Nodes:    (int(b[1]) + 1) << (b[3] % 3),
			Runtime:  runtime,
			Walltime: runtime + units.Duration(b[3])*units.Minute,
		})
	}
	return jobs
}

// FuzzSchedule feeds fuzzer-constructed workloads through the engine
// with the full validity oracle armed. Any invariant violation fails
// Run itself; on top of that, a Live session that submits each job and
// then drains must reproduce Run byte for byte on the same input: Run
// replays its trace through the streaming pump, so Live is the intake
// independent of it.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00" + "\x00\x3f\x10\x00" + "\x05\x7f\x20\x01"))
	f.Add([]byte("\x01\x01\x01\x01\x01" + "\x00\xff\x30\x02" + "\x00\x1f\x08\x00" + "\x14\x0f\x40\x03"))
	f.Add([]byte("\x02\x04\x02\x00\x02" + "\x02\x07\x05\x01" + "\x02\x3f\x60\x00"))
	f.Add([]byte("\x00\x05\x00\x01\x00" + "\x00\x0f\x01\x00" + "\x00\x0f\x01\x00" + "\x00\xef\x7f\x02"))
	f.Add([]byte("\x01\x02\x01\x00\x01"))
	// Event-mode fairness seeds walking the incremental oracle's
	// deferral frontier: a drain where every batch resolves on the free
	// path, an immediate contended burst that forks early, and a quiet
	// prefix before a late burst that must survive glued across the
	// phantom instants in between.
	f.Add([]byte("\x01\x00\x00\x01\x00" + "\x00\x0f\x04\x00" + "\xc8\x0f\x04\x00" + "\xc8\x1f\x06\x00" + "\xc8\x0f\x04\x00"))
	f.Add([]byte("\x00\x04\x00\x01\x01" + "\x00\xff\x20\x01" + "\x00\x7f\x10\x01" + "\x01\xff\x08\x00" + "\x01\x3f\x30\x01" + "\x00\x1f\x04\x00"))
	f.Add([]byte("\x02\x01\x00\x01\x02" + "\x00\x1f\x04\x00" + "\xc8\x1f\x04\x00" + "\xc8\xff\x30\x01" + "\x00\x7f\x08\x00" + "\x00\x3f\x20\x01" + "\x01\x1f\x02\x00"))
	// What-if tuner seeds (flags bit 1): retune ticks fork rollout
	// engines in event mode and under a periodic cadence, with a
	// contended burst so the planner has a queue to repack.
	f.Add([]byte("\x00\x00\x00\x02\x00" + "\x00\xff\x20\x01" + "\x00\x7f\x10\x01" + "\x01\x3f\x30\x01" + "\x00\x1f\x04\x00"))
	f.Add([]byte("\x01\x00\x01\x02\x01" + "\x00\xff\x30\x02" + "\x00\x7f\x08\x00" + "\x14\x3f\x40\x03" + "\x00\x0f\x02\x00"))
	// WFP^3 and UNICEF seeds: a machine-filling marathon job (runtime
	// byte 0xff) strands a burst of short wide jobs in the queue, so
	// wait/walltime ratios — cubed by WFP, log-scaled by UNICEF — grow
	// extreme and shake the score arithmetic at its numeric edges.
	f.Add([]byte("\x00\x06\x00\x00\x00" + "\x00\xff\xff\x02" + "\x00\x0f\x00\x00" + "\x00\xff\x00\x00" + "\x00\x07\x00\x00"))
	f.Add([]byte("\x01\x07\x01\x00\x01" + "\x00\xff\xff\x02" + "\x01\x3f\x00\x00" + "\x00\xff\xff\x00" + "\x00\x01\x00\x00"))
	f.Add([]byte("\x02\x06\x02\x01\x02" + "\x00\x7f\xff\x01" + "\x00\x0f\x00\x00" + "\xff\xff\x00\x00"))
	f.Add([]byte("\x00\x07\x00\x01\x00" + "\x00\xff\xff\x00" + "\x00\x1f\x00\x00" + "\x00\x1f\x00\x00" + "\xc8\x0f\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		var h [5]byte
		copy(h[:], data)
		maxJobs := 48
		if h[3]&1 == 1 {
			maxJobs = 20 // the fairness oracle nests a sim per submission
		} else if h[3]&2 == 2 {
			maxJobs = 24 // the what-if planner nests a sim grid per checkpoint
		}
		jobs := fuzzJobs(data[5:], maxJobs)
		if len(jobs) == 0 {
			return
		}

		cfg := fuzzConfig(h)
		var batchTrace bytes.Buffer
		cfg.Trace = &batchTrace
		want, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}

		var liveTrace bytes.Buffer
		cfg.Trace = &liveTrace
		l, err := NewLive(cfg, false)
		if err != nil {
			t.Fatalf("NewLive: %v", err)
		}
		rejected := 0
		for _, j := range jobs {
			if _, err := l.Submit(j); errors.Is(err, ErrRejected) {
				rejected++
			} else if err != nil {
				t.Fatalf("submit job %d: %v", j.ID, err)
			}
		}
		if err := l.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		got := &Result{}
		l.Each(func(j *job.Job) { got.Jobs = append(got.Jobs, j) })
		if scheduleHash(got) != scheduleHash(want) {
			t.Fatal("live schedule differs from batch schedule")
		}
		if l.Accepted() != want.AcceptedCount || rejected != want.RejectedCount ||
			l.Rejected() != want.RejectedCount {
			t.Fatalf("live census %d/%d (session counts %d rejected), batch %d/%d",
				l.Accepted(), rejected, l.Rejected(), want.AcceptedCount, want.RejectedCount)
		}
		if !bytes.Equal(liveTrace.Bytes(), batchTrace.Bytes()) {
			t.Fatal("live event trace differs from batch trace")
		}
	})
}
