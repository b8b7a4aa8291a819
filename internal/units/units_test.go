package units

import "testing"

func TestArithmetic(t *testing.T) {
	var base Time = 100
	if got := base.Add(50); got != 150 {
		t.Errorf("Add: got %d, want 150", got)
	}
	if got := Time(150).Sub(base); got != 50 {
		t.Errorf("Sub: got %d, want 50", got)
	}
	if !base.Before(150) || base.After(150) {
		t.Errorf("Before/After ordering wrong")
	}
	if got := base.Min(150); got != 100 {
		t.Errorf("Min: got %d", got)
	}
	if got := base.Max(150); got != 150 {
		t.Errorf("Max: got %d", got)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Minute != 60 || Hour != 3600 || Day != 86400 || Week != 604800 {
		t.Fatalf("constants wrong: %d %d %d %d", Minute, Hour, Day, Week)
	}
	if got := Minutes(1.5); got != 90 {
		t.Errorf("Minutes(1.5) = %d, want 90", got)
	}
	if got := Hours(2); got != 7200 {
		t.Errorf("Hours(2) = %d, want 7200", got)
	}
	if got := Duration(90).Minutes(); got != 1.5 {
		t.Errorf("Minutes() = %v, want 1.5", got)
	}
	if got := Duration(5400).HoursF(); got != 1.5 {
		t.Errorf("HoursF() = %v, want 1.5", got)
	}
	if got := Time(5400).Hours(); got != 1.5 {
		t.Errorf("Time.Hours() = %v, want 1.5", got)
	}
	if got := Duration(10).Clamp(20, 30); got != 20 {
		t.Errorf("Clamp low = %d", got)
	}
	if got := Duration(40).Clamp(20, 30); got != 30 {
		t.Errorf("Clamp high = %d", got)
	}
	if got := Duration(25).Clamp(20, 30); got != 25 {
		t.Errorf("Clamp mid = %d", got)
	}
	if got := Duration(5).Min(9); got != 5 {
		t.Errorf("Duration.Min = %d", got)
	}
	if got := Duration(5).Max(9); got != 9 {
		t.Errorf("Duration.Max = %d", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0:00:00"},
		{59, "0:00:59"},
		{60, "0:01:00"},
		{3661, "1:01:01"},
		{-3661, "-1:01:01"},
		{Day + Hour, "25:00:00"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestForeverIsLate(t *testing.T) {
	if !Time(1 << 40).Before(Forever) {
		t.Fatal("Forever is not late enough")
	}
	if Forever.Add(Duration(1)) < Forever {
		t.Fatal("Forever overflows on small Add") // 1<<62-1 + 1 still < 1<<63-1
	}
}
