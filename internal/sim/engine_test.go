package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		secs float64
	}{
		{Second, 1},
		{Millisecond, 0.001},
		{Microsecond, 1e-6},
		{2500 * Millisecond, 2.5},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("%v.Seconds() = %v, want %v", c.in, got, c.secs)
		}
	}
	if got := Seconds(1.5); got != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v", got)
	}
	if got := Micros(3); got != 3*Microsecond {
		t.Errorf("Micros(3) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{MaxTime, "∞"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("clock = %v, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("fired = %d, want 3", e.Fired())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after cancel")
	}
	// Double cancel is a no-op, as is cancelling the zero Event.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev Event
	e.At(5, func() { e.Cancel(ev) })
	ev = e.At(10, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want exactly events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("clock = %v, want 25", e.Now())
	}
	// Events at exactly the boundary fire.
	e.RunUntil(30)
	if len(fired) != 3 {
		t.Errorf("boundary event at 30 did not fire: %v", fired)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	cancel := e.Every(0, 10, func(now Time) {
		ticks = append(ticks, now)
	})
	e.At(35, func() { cancel() })
	e.Run()
	want := []Time{0, 10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineNilFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event func did not panic")
		}
	}()
	e.At(1, nil)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	s1 := NewRNG(42).Stream("arrivals")
	s2 := NewRNG(42).Stream("arrivals")
	if s1.Float64() != s2.Float64() {
		t.Error("derived streams with same name differ")
	}
	s3 := NewRNG(42).Stream("service")
	if s1.seed == s3.seed {
		t.Error("different stream names produced same seed")
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(4.0)
	}
	mean := sum / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("Exp(4) mean = %v, want ~0.25", mean)
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	r := NewRNG(9)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(1.0, 0.5)
	}
	// Median of lognormal is e^mu.
	med := quickSelectMedian(xs)
	if math.Abs(med-math.E) > 0.1 {
		t.Errorf("LogNormal median = %v, want ~%v", med, math.E)
	}
}

func quickSelectMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func TestRNGParetoTail(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	exceed := 0
	for i := 0; i < n; i++ {
		if r.Pareto(1.0, 2.0) > 2.0 {
			exceed++
		}
	}
	// P(X > 2) = (1/2)^2 = 0.25.
	frac := float64(exceed) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Pareto tail fraction = %v, want ~0.25", frac)
	}
}

func TestRNGParetoAboveScale(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if r.Pareto(3.0, 1.5) < 3.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformRange(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Uniform(2, 5)
			if v < 2 || v >= 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEngineMonotonicClock property-checks that no event sequence can move
// the clock backwards.
func TestEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

func TestEnginePendingAndPeekSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev1 := e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Cancel(ev1)
	// RunUntil must skip the cancelled head cleanly.
	e.RunUntil(15)
	if e.Now() != 15 {
		t.Errorf("Now = %v", e.Now())
	}
	e.Run()
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want only the surviving event", e.Fired())
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	e.Every(0, 0, func(Time) {})
}

func TestRNGBadDistributionsPanic(t *testing.T) {
	r := NewRNG(1)
	for name, fn := range map[string]func(){
		"Exp":    func() { r.Exp(0) },
		"Pareto": func() { r.Pareto(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad params did not panic", name)
				}
			}()
			fn()
		}()
	}
}
