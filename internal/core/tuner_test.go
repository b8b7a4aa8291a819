package core

import (
	"math"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

// fakeMetrics is a canned sched.MetricsView.
type fakeMetrics struct {
	qd   float64
	util map[units.Duration]float64
}

func (f fakeMetrics) QueueDepthMinutes() float64 { return f.qd }

func (f fakeMetrics) UtilWindowAvg(w units.Duration) float64 { return f.util[w] }

func env() sched.Env { return schedtest.New(machine.NewFlat(10)) }

func TestPaperBFSchemeToggles(t *testing.T) {
	tu := NewTuner(PaperBFScheme(1000))
	if bf, w := tu.Tunables(); bf != 1 || w != 1 {
		t.Fatalf("initial tunables %v,%d", bf, w)
	}
	// Deep queue → BF drops to 0.5.
	tu.Checkpoint(env(), fakeMetrics{qd: 1500})
	if bf, _ := tu.Tunables(); bf != 0.5 {
		t.Errorf("BF after deep queue = %v, want 0.5", bf)
	}
	// Still deep: clamped at Min, not below.
	tu.Checkpoint(env(), fakeMetrics{qd: 2000})
	if bf, _ := tu.Tunables(); bf != 0.5 {
		t.Errorf("BF clamped = %v, want 0.5", bf)
	}
	// Shallow queue → back to 1, clamped at Max.
	tu.Checkpoint(env(), fakeMetrics{qd: 10})
	tu.Checkpoint(env(), fakeMetrics{qd: 10})
	if bf, _ := tu.Tunables(); bf != 1 {
		t.Errorf("BF relaxed = %v, want 1", bf)
	}
	// Threshold is inclusive ("reaches Th").
	tu.Checkpoint(env(), fakeMetrics{qd: 1000})
	if bf, _ := tu.Tunables(); bf != 0.5 {
		t.Errorf("BF at exact threshold = %v, want 0.5", bf)
	}
}

func TestPaperWSchemeToggles(t *testing.T) {
	tu := NewTuner(PaperWScheme())
	declining := fakeMetrics{util: map[units.Duration]float64{
		10 * units.Hour: 0.6, 24 * units.Hour: 0.8,
	}}
	rising := fakeMetrics{util: map[units.Duration]float64{
		10 * units.Hour: 0.9, 24 * units.Hour: 0.8,
	}}
	tu.Checkpoint(env(), declining)
	if _, w := tu.Tunables(); w != 4 {
		t.Errorf("W after decline = %d, want 4", w)
	}
	tu.Checkpoint(env(), declining) // clamp at 4
	if _, w := tu.Tunables(); w != 4 {
		t.Errorf("W clamped = %d, want 4", w)
	}
	tu.Checkpoint(env(), rising)
	if _, w := tu.Tunables(); w != 1 {
		t.Errorf("W after rise = %d, want 1", w)
	}
	tu.Checkpoint(env(), rising) // clamp at 1
	if _, w := tu.Tunables(); w != 1 {
		t.Errorf("W clamped low = %d, want 1", w)
	}
}

func Test2DTuning(t *testing.T) {
	tu := NewTuner(PaperBFScheme(1000), PaperWScheme())
	if tu.Name() != "adaptive(BF+W)" {
		t.Errorf("Name = %q", tu.Name())
	}
	m := fakeMetrics{
		qd: 5000,
		util: map[units.Duration]float64{
			10 * units.Hour: 0.5, 24 * units.Hour: 0.9,
		},
	}
	tu.Checkpoint(env(), m)
	bf, w := tu.Tunables()
	if bf != 0.5 || w != 4 {
		t.Errorf("2D engaged: bf=%v w=%d, want 0.5, 4", bf, w)
	}
	calm := fakeMetrics{
		qd: 0,
		util: map[units.Duration]float64{
			10 * units.Hour: 0.9, 24 * units.Hour: 0.9,
		},
	}
	tu.Checkpoint(env(), calm)
	bf, w = tu.Tunables()
	if bf != 1 || w != 1 {
		t.Errorf("2D relaxed: bf=%v w=%d, want 1, 1", bf, w)
	}
}

func TestTunerCloneFreezesState(t *testing.T) {
	tu := NewTuner(PaperBFScheme(1000))
	tu.Checkpoint(env(), fakeMetrics{qd: 9999})
	c := tu.Clone().(*Tuner)
	if bf, _ := c.Tunables(); bf != 0.5 {
		t.Errorf("clone lost tuning state: bf=%v", bf)
	}
	// Tuning the clone must not touch the original.
	c.Checkpoint(env(), fakeMetrics{qd: 0})
	if bf, _ := tu.Tunables(); bf != 0.5 {
		t.Errorf("clone checkpoint mutated original: bf=%v", bf)
	}
}

// TestTunerCloneSharesNoScratch pins that a Tuner clone's wrapped policy
// owns its scratch buffers: the engine's fairness worlds schedule clones
// on other goroutines while the source keeps scheduling, so a shared
// buffer is a data race. CloneInto must also leave a retired
// destination's own buffers in place.
func TestTunerCloneSharesNoScratch(t *testing.T) {
	pass := func(s sched.Scheduler) {
		s.Schedule(schedtest.New(machine.NewFlat(100),
			schedtest.J(1, 0, 60, 100, 100), schedtest.J(2, 1, 60, 200, 200),
			schedtest.J(3, 2, 30, 50, 50), schedtest.J(4, 3, 50, 300, 300)))
	}
	tu := NewTuner(PaperBFScheme(1000))
	tu.Base().W = 3 // the window search allocates its scratch too
	pass(tu)

	retired := tu.Clone().(*Tuner)
	pass(retired)
	retiredPrio := retired.base.prio
	into := tu.CloneInto(retired).(*Tuner)
	if into != retired || into.base.prio != retiredPrio {
		t.Fatal("CloneInto did not reuse the retired tuner and its scratch")
	}

	for name, c := range map[string]*Tuner{"Clone": tu.Clone().(*Tuner), "CloneInto": into} {
		pass(c)
		pass(tu)
		src, dst := tu.base, c.base
		if src == dst {
			t.Fatalf("%s: the clone wraps the source's policy", name)
		}
		if src.prio == nil || src.search == nil {
			t.Fatalf("%s: the source allocated no scratch; the test proves nothing", name)
		}
		if src.prio == dst.prio || src.search == dst.search {
			t.Errorf("%s: the clone shares scratch with its source", name)
		}
	}
}

func TestTunerSchedules(t *testing.T) {
	// The tuner must delegate scheduling to its base policy.
	m := machine.NewFlat(100)
	e := schedtest.New(m, schedtest.J(1, 0, 50, 100, 60))
	tu := NewTuner(PaperBFScheme(1000))
	tu.Schedule(e)
	if len(e.Started) != 1 {
		t.Errorf("tuner did not schedule: started %v", e.StartedIDs())
	}
}

func TestSchemeValidate(t *testing.T) {
	bad := []Scheme{
		{Target: TunableBF, Initial: 1, Delta: 0.5, Min: 0.5, Max: 1},                                          // no monitor
		{Target: TunableBF, Initial: 1, Delta: 0, Min: 0.5, Max: 1, Monitor: QueueDepthMonitor{}},              // zero delta
		{Target: TunableBF, Initial: 1, Delta: 0.5, Min: 1, Max: 0.5, Monitor: QueueDepthMonitor{}},            // min>max
		{Target: TunableBF, Initial: 2, Delta: 0.5, Min: 0.5, Max: 2, Monitor: QueueDepthMonitor{}},            // BF above 1
		{Target: TunableW, Initial: 0, Delta: 1, Min: 0, Max: 4, Monitor: UtilTrendMonitor{Short: 1, Long: 2}}, // W below 1
		{Target: TunableBF, Initial: 0.2, Delta: 0.5, Min: 0.5, Max: 1, Monitor: QueueDepthMonitor{}},          // initial out of range
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scheme %d accepted", i)
		}
	}
	if err := PaperBFScheme(1000).Validate(); err != nil {
		t.Errorf("paper BF scheme rejected: %v", err)
	}
	if err := PaperWScheme().Validate(); err != nil {
		t.Errorf("paper W scheme rejected: %v", err)
	}
}

func TestNewTunerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTuner() with no schemes did not panic")
		}
	}()
	NewTuner()
}

func TestMonitorDescriptions(t *testing.T) {
	if TunableBF.String() != "BF" || TunableW.String() != "W" {
		t.Error("tunable names wrong")
	}
	if Tunable(9).String() != "tunable(9)" {
		t.Error("unknown tunable name wrong")
	}
}

// A balance-factor scheme with a step finer than the paper's toggle
// walks BF by ±Δ within its bounds, one step per checkpoint.
func TestFineBFSchemeWalks(t *testing.T) {
	fine := Scheme{
		Target:  TunableBF,
		Initial: 1, Delta: 0.1, Min: 0.5, Max: 1,
		Monitor: QueueDepthMonitor{ThresholdMinutes: 1000},
	}
	tu := NewTuner(fine)
	deep := fakeMetrics{qd: 5000}
	// Each deep checkpoint walks BF down by 0.1 toward the 0.5 floor.
	wantDown := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.5}
	for i, want := range wantDown {
		tu.Checkpoint(env(), deep)
		if bf, _ := tu.Tunables(); math.Abs(bf-want) > 1e-9 {
			t.Fatalf("step %d: bf=%v, want %v", i, bf, want)
		}
	}
	// Shallow checkpoints walk it back up to 1.
	shallow := fakeMetrics{qd: 0}
	for i := 0; i < 6; i++ {
		tu.Checkpoint(env(), shallow)
	}
	if bf, _ := tu.Tunables(); bf != 1 {
		t.Errorf("bf after recovery = %v, want 1", bf)
	}
}
