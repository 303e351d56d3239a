package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortInputs are generators for the shapes the sort must get right: the
// radix path's ordinary case, its skewed buckets, its degenerate passes, the
// sign handling of the key, and the inputs it must hand to the library.
var sortInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}},
	{"heavy-tailed", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1e-3 * math.Exp(0.8*rng.NormFloat64())
			if rng.Intn(100) == 0 {
				xs[i] *= math.Pow(rng.Float64(), -1.5)
			}
		}
		return xs
	}},
	{"all-equal", func(_ *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.0042
		}
		return xs
	}},
	{"few-distinct", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(3)) * 0.25
		}
		return xs
	}},
	{"low-bytes-only", func(rng *rand.Rand, n int) []float64 {
		// Keys that differ only in their lowest byte or two.
		xs := make([]float64, n)
		base := math.Float64bits(1.5)
		for i := range xs {
			xs[i] = math.Float64frombits(base + uint64(rng.Intn(700)))
		}
		return xs
	}},
	{"negative", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		return xs
	}},
	{"signed-zeros", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = math.Copysign(0, -1)
			case 1:
				xs[i] = 0
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		return xs
	}},
	{"infinities", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = math.Inf(1)
			case 1:
				xs[i] = math.Inf(-1)
			case 2:
				xs[i] = math.MaxFloat64
			case 3:
				xs[i] = -math.SmallestNonzeroFloat64
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		return xs
	}},
	{"nan", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		xs[n/2] = math.NaN()
		xs[n-1] = math.Float64frombits(0xfff8000000000001) // negative quiet NaN
		return xs
	}},
}

// TestSortFloatsMatchesLibrary: for every input shape at sizes around every
// threshold (the library cut-off, one full top-level fan-out of cut-off-sized
// buckets, and well past it), sortFloats leaves bit for bit the array
// sort.Float64s does.
func TestSortFloatsMatchesLibrary(t *testing.T) {
	sizes := []int{1, 2, radixMin - 1, radixMin, radixMin + 1, 255, 256, 257, 1000,
		256*radixMin - 1, 256 * radixMin, 256*radixMin + 1, 100_000}
	for _, in := range sortInputs {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n)))
			xs := in.gen(rng, n)
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			sortFloats(xs)
			for i := range want {
				if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: element %d is %v (%#x), library has %v (%#x)", in.name, n, i,
						xs[i], math.Float64bits(xs[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// logNormalSet is the 200 000-sample latency-like set TestSummarizePinned
// holds Summarize to.
func logNormalSet() []float64 {
	rng := rand.New(rand.NewSource(20230807))
	xs := make([]float64, 200_000)
	for i := range xs {
		xs[i] = 2e-3 * math.Exp(0.6*rng.NormFloat64())
	}
	return xs
}

// TestSummarizePinned holds Summarize, Percentile and CDF on a large sample
// set to the bits they produced when they sorted with sort.Float64s: Mean and
// Std are summed in sorted order, so the whole sorted array has to match.
func TestSummarizePinned(t *testing.T) {
	xs := logNormalSet()
	orig := append([]float64(nil), xs...)
	s := Summarize(xs)
	got := []uint64{uint64(s.N),
		math.Float64bits(s.Mean), math.Float64bits(s.Std), math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.P50), math.Float64bits(s.P90), math.Float64bits(s.P95), math.Float64bits(s.P99),
		math.Float64bits(Percentile(xs, 99.9))}
	var cdf uint64
	for _, p := range CDF(xs, 1000) {
		cdf = (cdf ^ math.Float64bits(p.X) ^ math.Float64bits(p.P)) * 1099511628211
	}
	got = append(got, cdf)
	want := summarizePinned
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("field %d: bits %#x, want %#x", i, got[i], want[i])
		}
	}
	for i := range orig {
		if xs[i] != orig[i] {
			t.Fatal("Summarize, Percentile or CDF mutated its input")
		}
	}
}

// summarizePinned was captured on the commit before the radix sort.
var summarizePinned = []uint64{
	0x30d40,            // N
	0x3f639c0c38e468a1, // Mean
	0x3f59e4e733437e13, // Std
	0x3f1b140bcab19645, // Min
	0x3fa81431c3f8a419, // Max
	0x3f605fd03f22c7e4, // P50
	0x3f71a856c78ff5c1, // P90
	0x3f75f9345a2f59e9, // P95
	0x3f8086c8cf5ac918, // P99
	0x3f8a1a5d17668fd7, // Percentile(99.9)
	0x33194b4063d4975d, // CDF(1000) fold
}

// TestSortFloatsZeroAllocs: the sort works inside the slice it is given.
func TestSortFloatsZeroAllocs(t *testing.T) {
	xs := logNormalSet()
	cp := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(5, func() {
		copy(cp, xs)
		sortFloats(cp)
	})
	if allocs != 0 {
		t.Errorf("sortFloats allocated %v times per call, want 0", allocs)
	}
	if !sort.Float64sAreSorted(cp) {
		t.Error("result not sorted")
	}
}

func BenchmarkSortFloats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1_840_000)
	for i := range xs {
		xs[i] = 2e-3 * math.Exp(0.6*rng.NormFloat64())
	}
	cp := make([]float64, len(xs))
	for _, bc := range []struct {
		name string
		sort func([]float64)
	}{{"radix", sortFloats}, {"library", sort.Float64s}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(cp, xs)
				bc.sort(cp)
			}
		})
	}
}
