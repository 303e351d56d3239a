package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/sim"
)

func TestDefaultLadderValid(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := l.Levels()
	if len(levels) != 15 { // 0.8..2.1 (14 points) + turbo
		t.Fatalf("levels = %v (%d), want 15", levels, len(levels))
	}
	if levels[0] != 0.8 || levels[len(levels)-2] != 2.1 || levels[len(levels)-1] != 2.8 {
		t.Errorf("levels = %v", levels)
	}
	if l.NumLevels() != len(levels) {
		t.Error("NumLevels mismatch")
	}
}

func TestLadderValidate(t *testing.T) {
	bad := []Ladder{
		{Min: 0, Max: 2, Step: 0.1, Turbo: 2.5},
		{Min: 2, Max: 1, Step: 0.1, Turbo: 2.5},
		{Min: 1, Max: 2, Step: 0, Turbo: 2.5},
		{Min: 1, Max: 2, Step: 0.1, Turbo: 1.5},
		{Min: 1, Max: 2, Step: 0.1, Turbo: 2.5, TransitionLatency: -1},
	}
	for i, l := range bad {
		if l.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, l)
		}
	}
}

func TestQuantize(t *testing.T) {
	l := DefaultLadder()
	cases := []struct{ in, want Freq }{
		{0.5, 0.8},  // clamp low
		{3.0, 2.1},  // clamp high (never turbo)
		{1.04, 1.0}, // round down
		{1.06, 1.1}, // round up
		{2.1, 2.1},
	}
	for _, c := range cases {
		if got := l.Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeOnGrid(t *testing.T) {
	l := DefaultLadder()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		q := l.Quantize(Freq(raw))
		if q < l.Min || q > l.Max {
			return false
		}
		steps := (float64(q) - float64(l.Min)) / float64(l.Step)
		return math.Abs(steps-math.Round(steps)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpolate(t *testing.T) {
	l := DefaultLadder()
	if got := l.Interpolate(0); got != l.Min {
		t.Errorf("Interpolate(0) = %v", got)
	}
	if got := l.Interpolate(1); got != l.Max {
		t.Errorf("Interpolate(1) = %v", got)
	}
	if got := l.Interpolate(-5); got != l.Min {
		t.Errorf("Interpolate(-5) = %v", got)
	}
	if got := l.Interpolate(7); got != l.Max {
		t.Errorf("Interpolate(7) = %v", got)
	}
	mid := l.Interpolate(0.5)
	if mid <= l.Min || mid >= l.Max {
		t.Errorf("Interpolate(0.5) = %v not strictly inside ladder", mid)
	}
}

func TestInterpolateMonotone(t *testing.T) {
	l := DefaultLadder()
	last := Freq(0)
	for s := 0.0; s <= 1.0; s += 0.01 {
		f := l.Interpolate(s)
		if f < last {
			t.Fatalf("Interpolate not monotone at score %v: %v < %v", s, f, last)
		}
		last = f
	}
}

func TestCoreStartsAtMax(t *testing.T) {
	c := NewCore(3, DefaultLadder())
	if c.ID() != 3 {
		t.Errorf("ID = %d", c.ID())
	}
	if c.FreqAt(0) != 2.1 {
		t.Errorf("initial freq = %v, want 2.1", c.FreqAt(0))
	}
}

func TestSetFreqTransitionLatency(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	c.SetFreq(0, 1.0)
	if got := c.FreqAt(5 * sim.Microsecond); got != 2.1 {
		t.Errorf("freq during transition = %v, want old 2.1", got)
	}
	if got := c.FreqAt(10 * sim.Microsecond); got != 1.0 {
		t.Errorf("freq after transition = %v, want 1.0", got)
	}
	if c.Target() != 1.0 {
		t.Errorf("Target = %v", c.Target())
	}
}

func TestSetFreqNoOp(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	c.SetFreq(0, 2.1) // already at 2.1
	if c.Transitions() != 0 {
		t.Errorf("no-op SetFreq counted a transition")
	}
	c.SetFreq(0, 1.5)
	c.SetFreq(sim.Millisecond, 1.5) // same target again
	if c.Transitions() != 1 {
		t.Errorf("Transitions = %d, want 1", c.Transitions())
	}
}

func TestSetTurbo(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	c.SetTurbo(0)
	if got := c.FreqAt(sim.Millisecond); got != 2.8 {
		t.Errorf("turbo freq = %v, want 2.8", got)
	}
}

func TestZeroLatencyImmediate(t *testing.T) {
	l := DefaultLadder()
	l.TransitionLatency = 0
	c := NewCore(0, l)
	c.SetFreq(100, 1.2)
	if got := c.FreqAt(100); got != 1.2 {
		t.Errorf("zero-latency freq = %v, want 1.2", got)
	}
}

func TestFreqString(t *testing.T) {
	if s := Freq(2.1).String(); s != "2.1GHz" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkSetFreq(b *testing.B) {
	c := NewCore(0, DefaultLadder())
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Millisecond
		if i%2 == 0 {
			c.SetFreq(now, 1.0)
		} else {
			c.SetFreq(now, 2.0)
		}
	}
}

func TestSegmentsSplitAtPendingSwitch(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	c.SetFreq(0, 1.0) // matures at 10us
	segs := c.Segments(0, 20*sim.Microsecond)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].F != 2.1 || segs[1].F != 1.0 {
		t.Errorf("segment freqs = %v, %v", segs[0].F, segs[1].F)
	}
	if segs[0].To != 10*sim.Microsecond || segs[1].From != 10*sim.Microsecond {
		t.Errorf("split point wrong: %+v", segs)
	}
	// Interval entirely before or after the switch: one segment.
	if got := c.Segments(20*sim.Microsecond, 30*sim.Microsecond); len(got) != 1 || got[0].F != 1.0 {
		t.Errorf("post-switch segments = %+v", got)
	}
}

func TestSegmentsReversedPanics(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	defer func() {
		if recover() == nil {
			t.Error("reversed Segments did not panic")
		}
	}()
	c.Segments(10, 5)
}

func TestPendingSwitch(t *testing.T) {
	c := NewCore(0, DefaultLadder())
	if _, _, ok := c.PendingSwitch(); ok {
		t.Error("fresh core reports pending switch")
	}
	c.SetFreq(100, 1.5)
	at, f, ok := c.PendingSwitch()
	if !ok || f != 1.5 || at != 100+10*sim.Microsecond {
		t.Errorf("PendingSwitch = %v %v %v", at, f, ok)
	}
}
