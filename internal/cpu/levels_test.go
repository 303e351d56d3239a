package cpu

import (
	"math"
	"math/rand"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// refQuantize, refInterpolate and refSetScore are the quantizer and the
// score actuation as they stood before the level table — interpolate,
// quantize, then quantize again inside Core.SetFreq — kept here verbatim as
// the reference the table path is held to.
func refQuantize(l Ladder, f Freq) Freq {
	if math.IsNaN(float64(f)) || f <= l.Min {
		return l.Min
	}
	if f >= l.Max {
		return l.Max
	}
	steps := math.Round(float64(f-l.Min) / float64(l.Step))
	return Freq(math.Round(float64(l.Min+Freq(steps)*l.Step)*1e6) / 1e6)
}

func refInterpolate(l Ladder, score float64) Freq {
	if math.IsNaN(score) || score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return refQuantize(l, l.Min+Freq(score)*(l.Max-l.Min))
}

func refSetScore(l Ladder, score float64) Freq {
	f := refInterpolate(l, score)
	if f != l.Turbo {
		f = refQuantize(l, f)
	}
	return f
}

func tableLadders() map[string]Ladder {
	zeroLat := DefaultLadder()
	zeroLat.TransitionLatency = 0
	ls := map[string]Ladder{
		"default":      DefaultLadder(),
		"zero-latency": zeroLat,
		"max==min":     {Min: 1.5, Max: 1.5, Step: 0.1, Turbo: 1.5, TransitionLatency: 10 * sim.Microsecond},
		// 1.3 GHz of range in 0.4 GHz steps: the top grid point sits below Max.
		"step-short-of-max": {Min: 0.8, Max: 2.1, Step: 0.4, Turbo: 2.8, TransitionLatency: 10 * sim.Microsecond},
		// In 0.5 GHz steps the nearest grid point to scores near 1 lies past
		// Max and the second quantization clamps it.
		"step-past-max": {Min: 0.8, Max: 2.1, Step: 0.5, Turbo: 2.8, TransitionLatency: 10 * sim.Microsecond},
		"fine-step":     {Min: 1.0, Max: 3.7, Step: 0.025, Turbo: 4.2, TransitionLatency: sim.Microsecond},
	}
	for _, cl := range DefaultHetero(1, 1).Classes {
		ls["hetero-"+cl.Name] = cl.Ladder
	}
	return ls
}

// TestScoreLevelMatchesQuantizer: the table path (ScoreLevel → SetLevel)
// reaches the same target, bit for bit, as the reference interpolate →
// quantize → quantize path and as today's Ladder.Interpolate → Core.SetFreq,
// for random scores, the non-finite and out-of-range ones, every grid
// point's score and its neighbours one ulp either side, and a slow walk
// across them all.
func TestScoreLevelMatchesQuantizer(t *testing.T) {
	for name, l := range tableLadders() {
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		table, direct := NewCore(0, l), NewCore(1, l)
		scores := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, math.Copysign(0, -1),
			0, 1e-300, 0.5, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 7}
		for k := 0.0; l.Min+Freq(k)*l.Step <= l.Max+l.Step && l.Max > l.Min; k++ {
			// The scores that land on grid point k and on the rounding
			// boundary below it.
			for _, f := range []Freq{l.Min + Freq(k)*l.Step, l.Min + Freq(k-0.5)*l.Step} {
				s := float64((f - l.Min) / (l.Max - l.Min))
				scores = append(scores, s, math.Nextafter(s, 2), math.Nextafter(s, -2))
			}
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 100_000; i++ {
			scores = append(scores, rng.Float64()*1.2-0.1)
		}
		// A slow random walk up through every rounding boundary, stepping
		// back a quarter of the time, so the memoized scores of each level
		// are asked again on both sides of the boundaries around it.
		for s := -0.01; s < 1.01; s += (rng.Float64() - 0.25) * 1e-3 {
			scores = append(scores, s)
		}
		now := sim.Time(0)
		for _, s := range scores {
			want := refSetScore(l, s)
			got := table.ScoreLevel(s)
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: ScoreLevel(%v) = %v (%#x), reference %v (%#x)", name, s,
					got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
			}
			now += 7 * sim.Microsecond
			table.SetLevel(now, got)
			direct.SetFreq(now, l.Interpolate(s))
			if table.Target() != direct.Target() || table.Target() != want ||
				table.Transitions() != direct.Transitions() || table.FreqAt(now) != direct.FreqAt(now) {
				t.Fatalf("%s: score %v: table core target %v (%d transitions), SetFreq core %v (%d), reference %v",
					name, s, table.Target(), table.Transitions(), direct.Target(), direct.Transitions(), want)
			}
		}
	}
}

// TestLevelTableEntries: every table entry is what the quantizer itself makes
// of that grid point, and is a fixed point of Ladder.Quantize — quantizing a
// table value again, as Core.SetFreq would, changes nothing.
func TestLevelTableEntries(t *testing.T) {
	for name, l := range tableLadders() {
		c := NewCore(0, l)
		if len(c.levels) == 0 {
			t.Fatalf("%s: empty level table", name)
		}
		for k, f := range c.levels {
			grid := Freq(math.Round(float64(l.Min+Freq(k)*l.Step)*1e6) / 1e6)
			want := grid
			if want != l.Turbo {
				want = refQuantize(l, grid)
			}
			if f != want {
				t.Errorf("%s: levels[%d] = %v, quantizer gives %v", name, k, f, want)
			}
			if q := l.Quantize(f); q != f {
				t.Errorf("%s: levels[%d] = %v is not a fixed point of Quantize (%v)", name, k, f, q)
			}
		}
	}
}

// TestQuantizeMatchesReference holds the refactored Quantize/Interpolate to
// the reference on arbitrary frequencies.
func TestQuantizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, l := range tableLadders() {
		fs := []Freq{Freq(math.NaN()), Freq(math.Inf(1)), Freq(math.Inf(-1)), 0, -3, l.Min, l.Max, l.Turbo}
		for i := 0; i < 20_000; i++ {
			fs = append(fs, Freq(rng.Float64()*4))
		}
		for _, f := range fs {
			if got, want := l.Quantize(f), refQuantize(l, f); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s: Quantize(%v) = %v, reference %v", name, f, got, want)
			}
			s := float64(f) / 4
			if got, want := l.Interpolate(s), refInterpolate(l, s); got != want {
				t.Fatalf("%s: Interpolate(%v) = %v, reference %v", name, s, got, want)
			}
		}
	}
}

func TestNumLevelsMatchesLevels(t *testing.T) {
	for name, l := range tableLadders() {
		if got, want := l.NumLevels(), len(l.Levels()); got != want {
			t.Errorf("%s: NumLevels = %d, Levels has %d", name, got, want)
		}
	}
	l := DefaultLadder()
	if allocs := testing.AllocsPerRun(100, func() { _ = l.NumLevels() }); allocs != 0 {
		t.Errorf("NumLevels allocated %v times", allocs)
	}
}
