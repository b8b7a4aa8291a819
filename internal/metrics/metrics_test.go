package metrics

import (
	"math"
	"testing"

	"amjs/internal/job"
	"amjs/internal/units"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLoCIntegration(t *testing.T) {
	c := NewCollector(100)
	// [0,100): 40 idle, queued job fits → lost 40*100.
	c.OnScheduleStep(0, 60, 60, true)
	// [100,200): 40 idle, nothing fits → not lost.
	c.OnScheduleStep(100, 60, 60, false)
	// [200,300): full → nothing idle.
	c.OnScheduleStep(200, 100, 100, true)
	c.OnScheduleStep(300, 0, 0, false)
	// LoC = 40*100 / (100 * 300)
	if got := c.LoC(); !almost(got, 4000.0/30000.0) {
		t.Errorf("LoC = %v, want %v", got, 4000.0/30000.0)
	}
	// Utilization: (60*100 + 60*100 + 100*100) / (100*300)
	if got := c.UtilAvg(); !almost(got, 22000.0/30000.0) {
		t.Errorf("UtilAvg = %v", got)
	}
}

func TestLoCDegenerate(t *testing.T) {
	c := NewCollector(10)
	if c.LoC() != 0 || c.UtilAvg() != 0 || c.UsedAvg() != 0 {
		t.Error("empty collector must report zeros")
	}
	c.OnScheduleStep(5, 10, 10, true)
	if c.LoC() != 0 { // single step, zero span
		t.Error("zero-span LoC must be 0")
	}
}

func TestStepOutOfOrderPanics(t *testing.T) {
	c := NewCollector(10)
	c.OnScheduleStep(100, 5, 5, false)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order step did not panic")
		}
	}()
	c.OnScheduleStep(50, 5, 5, false)
}

func TestQueueDepthMinutes(t *testing.T) {
	queue := []*job.Job{
		{ID: 1, Submit: 0},
		{ID: 2, Submit: 1800},
	}
	// At t=3600: waits are 3600s and 1800s → 60 + 30 minutes.
	if got := QueueDepthMinutes(3600, queue); !almost(got, 90) {
		t.Errorf("QD = %v, want 90", got)
	}
	if got := QueueDepthMinutes(0, nil); got != 0 {
		t.Errorf("empty QD = %v", got)
	}
}

func TestWaitAndFairness(t *testing.T) {
	c := NewCollector(100)
	j1 := &job.Job{ID: 1, Submit: 0, Start: 600}  // waited 10 min
	j2 := &job.Job{ID: 2, Submit: 0, Start: 1800} // waited 30 min
	c.OnJobStart(j1, 0, 60, true)                 // fair start 0 → unfair (600 > 60)
	c.OnJobStart(j2, 1790, 60, true)              // within tolerance → fair
	if got := c.AvgWaitMinutes(); !almost(got, 20) {
		t.Errorf("AvgWait = %v, want 20", got)
	}
	if got := c.MaxWaitMinutes(); !almost(got, 30) {
		t.Errorf("MaxWait = %v", got)
	}
	if c.UnfairCount() != 1 || c.FairKnownCount() != 2 || c.StartedCount() != 2 {
		t.Errorf("fairness counts: %d/%d", c.UnfairCount(), c.FairKnownCount())
	}
	// Fairness unknown → not counted either way.
	c.OnJobStart(&job.Job{ID: 3, Submit: 0, Start: 99999}, 0, 60, false)
	if c.UnfairCount() != 1 || c.FairKnownCount() != 2 {
		t.Error("unknown fairness polluted the counts")
	}
	if c.StartedCount() != 3 {
		t.Errorf("StartedCount = %d, want 3", c.StartedCount())
	}
}

func TestBSLDHeadline(t *testing.T) {
	c := NewCollector(100)
	// j1: waited 600s, ran 600s -> bsld (600+600)/600 = 2.
	c.OnJobStart(&job.Job{ID: 1, Submit: 0, Start: 600, Runtime: 600}, 0, 0, false)
	// j2: waited 1800s, ran 300s -> bsld (1800+300)/300 = 7.
	c.OnJobStart(&job.Job{ID: 2, Submit: 0, Start: 1800, Runtime: 300}, 0, 0, false)
	// j3: very short job, bounded by tau=10s: waited 90s, ran 1s ->
	// (90+1)/10 = 9.1 rather than 91.
	c.OnJobStart(&job.Job{ID: 3, Submit: 0, Start: 90, Runtime: 1}, 0, 0, false)
	if got := c.AvgBSLD(); !almost(got, (2+7+9.1)/3) {
		t.Errorf("AvgBSLD = %v, want %v", got, (2+7+9.1)/3)
	}
	if got := c.MaxBSLD(); !almost(got, 9.1) {
		t.Errorf("MaxBSLD = %v, want 9.1", got)
	}

	// Lean mode folds the same aggregates.
	lc := NewCollector(100)
	lc.SetLean(24 * units.Hour)
	lc.OnJobStart(&job.Job{ID: 1, Submit: 0, Start: 600, Runtime: 600}, 0, 0, false)
	lc.OnJobStart(&job.Job{ID: 2, Submit: 0, Start: 1800, Runtime: 300}, 0, 0, false)
	if got := lc.AvgBSLD(); !almost(got, 4.5) {
		t.Errorf("lean AvgBSLD = %v, want 4.5", got)
	}
	if got := lc.MaxBSLD(); !almost(got, 7) {
		t.Errorf("lean MaxBSLD = %v, want 7", got)
	}
	if got := NewCollector(10).AvgBSLD(); got != 0 {
		t.Errorf("empty AvgBSLD = %v", got)
	}
}

func TestJobEndCounts(t *testing.T) {
	c := NewCollector(10)
	c.OnJobEnd(&job.Job{State: job.Finished})
	c.OnJobEnd(&job.Job{State: job.Killed})
	c.OnJobEnd(&job.Job{State: job.Finished})
	if c.FinishedCount() != 2 || c.KilledCount() != 1 {
		t.Errorf("end counts: %d finished, %d killed", c.FinishedCount(), c.KilledCount())
	}
}

func TestCheckpointSeries(t *testing.T) {
	c := NewCollector(100)
	c.OnScheduleStep(0, 50, 40, false)
	c.OnScheduleStep(3600, 80, 70, false)
	queue := []*job.Job{{ID: 1, Submit: 0}}
	c.OnCheckpoint(3600, queue, 0.5, 4, true)
	if c.QD.Len() != 1 || !almost(c.QD.Values[0], 60) {
		t.Errorf("QD series wrong: %+v", c.QD)
	}
	if !almost(c.UtilInstant.Values[0], 0.8) {
		t.Errorf("instant util = %v", c.UtilInstant.Values[0])
	}
	// 1H window [0,3600): busy 50 → 0.5.
	if !almost(c.Util1H.Values[0], 0.5) {
		t.Errorf("1H util = %v", c.Util1H.Values[0])
	}
	if !almost(c.BF.Values[0], 0.5) || !almost(c.W.Values[0], 4) {
		t.Error("tunable series not recorded")
	}
	// Without tunables the BF/W series stay empty.
	c.OnCheckpoint(7200, nil, 0, 0, false)
	if c.BF.Len() != 1 {
		t.Error("tunable series recorded without tunables")
	}
}

func TestUsedVsBusyAverages(t *testing.T) {
	c := NewCollector(100)
	c.OnScheduleStep(0, 80, 50, false) // 80 busy, only 50 requested
	c.OnScheduleStep(100, 0, 0, false)
	if got := c.UtilAvg(); !almost(got, 0.8) {
		t.Errorf("UtilAvg = %v", got)
	}
	if got := c.UsedAvg(); !almost(got, 0.5) {
		t.Errorf("UsedAvg = %v", got)
	}
	if c.Span() != 100 {
		t.Errorf("Span = %v", c.Span())
	}
}

func TestNewCollectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCollector(0) did not panic")
		}
	}()
	NewCollector(0)
}

func TestUtilWindowAvg(t *testing.T) {
	c := NewCollector(10)
	c.OnScheduleStep(0, 10, 10, false)
	c.OnScheduleStep(100, 0, 0, false)
	// Window [50,150] → busy 10 over [50,100), 0 over [100,150] → 0.5.
	if got := c.UtilWindowAvg(150, 100); !almost(got, 0.5) {
		t.Errorf("UtilWindowAvg = %v", got)
	}
}
