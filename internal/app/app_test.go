package app

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// all returns fresh profiles for every built-in application.
func all() []*Profile {
	var out []*Profile
	for _, n := range Names() {
		out = append(out, MustByName(n))
	}
	return out
}

func TestAllProfilesValid(t *testing.T) {
	for _, p := range all() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if ts, ok := p.Sampler.(*TailedSampler); ok {
			if err := ts.Validate(); err != nil {
				t.Errorf("%s sampler: %v", p.Name, err)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		p, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != n {
			t.Errorf("ByName(%q).Name = %q", n, p.Name)
		}
	}
	if _, err := ByName("nginx"); err == nil {
		t.Error("unknown app did not error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName of unknown app did not panic")
		}
	}()
	MustByName("nope")
}

func TestProfilesMatchPaperSLAs(t *testing.T) {
	want := map[string]sim.Time{
		Xapian:   8 * sim.Millisecond,
		Masstree: 1 * sim.Millisecond,
		Moses:    120 * sim.Millisecond,
		Sphinx:   4000 * sim.Millisecond,
		ImgDNN:   5 * sim.Millisecond,
	}
	for name, sla := range want {
		if got := MustByName(name).SLA; got != sla {
			t.Errorf("%s SLA = %v, want %v", name, got, sla)
		}
	}
	if MustByName(Masstree).Workers != 8 {
		t.Error("Masstree should use 8 workers (paper footnote 1)")
	}
	if MustByName(Xapian).Workers != 20 {
		t.Error("Xapian should use 20 workers")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustByName(Xapian)
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.SLA = 0 },
		func(p *Profile) { p.Workers = 0 },
		func(p *Profile) { p.RefFreq = 0 },
		func(p *Profile) { p.MemFrac = 1.0 },
		func(p *Profile) { p.ContentionCoef = -1 },
		func(p *Profile) { p.Sampler = nil },
	}
	for i, mut := range mutations {
		p := *good
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestServiceAtScaling(t *testing.T) {
	p := MustByName(Xapian) // MemFrac 0.15
	ref := sim.Millisecond
	// At reference frequency, no change.
	if got := p.ServiceAt(ref, p.RefFreq); got != ref {
		t.Errorf("ServiceAt(ref) = %v, want %v", got, ref)
	}
	// At half frequency the CPU part doubles, memory part unchanged.
	half := p.ServiceAt(ref, p.RefFreq/2)
	want := sim.Time(0.15*float64(ref) + 0.85*2*float64(ref))
	if math.Abs(float64(half-want)) > 1 {
		t.Errorf("ServiceAt(half) = %v, want %v", half, want)
	}
	// Zero frequency never finishes.
	if got := p.ServiceAt(ref, 0); got != sim.MaxTime {
		t.Errorf("ServiceAt(0) = %v", got)
	}
}

func TestSpeedAtInverseOfServiceAt(t *testing.T) {
	p := MustByName(Moses)
	f := func(rawF float64) bool {
		fr := 0.8 + math.Mod(math.Abs(rawF), 2.0)
		ref := 10 * sim.Millisecond
		viaService := p.ServiceAt(ref, cpuFreq(fr)).Seconds()
		viaSpeed := ref.Seconds() / p.SpeedAt(cpuFreq(fr))
		return math.Abs(viaService-viaSpeed) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	p := MustByName(Moses)
	a := p.Sampler.Sample(sim.NewRNG(1))
	b := p.Sampler.Sample(sim.NewRNG(1))
	if a.ServiceRef != b.ServiceRef {
		t.Error("same seed produced different work")
	}
	if len(a.Features) != p.Sampler.FeatureDim() {
		t.Errorf("feature dim %d != declared %d", len(a.Features), p.Sampler.FeatureDim())
	}
}

func TestSamplerPositiveService(t *testing.T) {
	for _, p := range all() {
		r := sim.NewRNG(3)
		for i := 0; i < 10000; i++ {
			w := p.Sampler.Sample(r)
			if w.ServiceRef <= 0 {
				t.Fatalf("%s produced non-positive service time %v", p.Name, w.ServiceRef)
			}
		}
	}
}

// Long-tail shape (Fig. 1): p99/mean ratios; Moses is the most skewed
// (the paper reports its tail ≈ 8× mean), Img-dnn nearly deterministic.
func TestFig1TailShape(t *testing.T) {
	ratios := map[string]float64{}
	for _, p := range all() {
		r := sim.NewRNG(5)
		xs := make([]float64, 50000)
		for i := range xs {
			xs[i] = p.Sampler.Sample(r).ServiceRef.Seconds()
		}
		ratios[p.Name] = stats.Percentile(xs, 99.9) / stats.Mean(xs)
	}
	if ratios[Moses] < 5 {
		t.Errorf("Moses tail/mean = %.2f, want >= 5 (paper: ~8)", ratios[Moses])
	}
	if ratios[ImgDNN] > 2 {
		t.Errorf("Img-dnn tail/mean = %.2f, want nearly deterministic (< 2)", ratios[ImgDNN])
	}
	if ratios[Moses] <= ratios[Xapian] {
		t.Errorf("Moses (%.2f) should be more skewed than Xapian (%.2f)",
			ratios[Moses], ratios[Xapian])
	}
}

// Mean service times must be on the right order of magnitude for each app:
// they anchor all load calculations.
func TestMeanServiceMagnitude(t *testing.T) {
	want := map[string][2]float64{ // [lo, hi) in milliseconds
		Xapian:   {0.5, 3},
		Masstree: {0.02, 0.2},
		Moses:    {5, 40},
		Sphinx:   {400, 1500},
		ImgDNN:   {1, 3},
	}
	for name, bounds := range want {
		p := MustByName(name)
		m := p.MeanService(1, 30000).Milliseconds()
		if m < bounds[0] || m >= bounds[1] {
			t.Errorf("%s mean service %.3f ms outside [%g, %g)", name, m, bounds[0], bounds[1])
		}
	}
}

func TestMaxCapacityScalesWithFrequency(t *testing.T) {
	p := MustByName(Xapian)
	lo := p.MaxCapacity(1.0, 1)
	hi := p.MaxCapacity(2.1, 1)
	if hi <= lo {
		t.Errorf("capacity at 2.1GHz (%v) not above 1.0GHz (%v)", hi, lo)
	}
	// With MemFrac > 0, capacity is sub-linear in frequency.
	if hi/lo >= 2.1 {
		t.Errorf("capacity ratio %v should be sub-linear (memory-bound floor)", hi/lo)
	}
}

func TestTailedSamplerValidate(t *testing.T) {
	bad := []TailedSampler{
		{BaseUS: -1},
		{Sigma1: -1},
		{TailProb: 1.5},
		{TailProb: 0.1, TailScale: 0, TailAlpha: 1},
		{TypeMuls: []float64{1}, TypeProbs: nil},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMasstreeRequestTypes(t *testing.T) {
	p := MustByName(Masstree)
	r := sim.NewRNG(8)
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		w := p.Sampler.Sample(r)
		counts[int(w.Features[2])]++
	}
	putFrac := float64(counts[0]) / n
	if math.Abs(putFrac-0.9) > 0.02 {
		t.Errorf("PUT fraction = %v, want ~0.9", putFrac)
	}
}

func cpuFreq(f float64) cpu.Freq { return cpu.Freq(f) }

func BenchmarkSample(b *testing.B) {
	p := MustByName(Moses)
	r := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sampler.Sample(r)
	}
}
