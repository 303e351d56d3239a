package app

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/sim"
)

// The five Tailbench applications of the paper's Table 3, with their SLAs.
// Sampler constants are calibrated so that (a) the 99th-percentile latency
// at 20/50/70% load under maximum frequency approximates the paper's
// Table 3 rows and (b) tail/mean service ratios follow Fig. 1 (Moses ≈ 8×).
const (
	Xapian   = "xapian"
	Masstree = "masstree"
	Moses    = "moses"
	Sphinx   = "sphinx"
	ImgDNN   = "img-dnn"
)

// Names lists the built-in application names in the paper's Table 3 order.
func Names() []string {
	return []string{Xapian, Masstree, Moses, Sphinx, ImgDNN}
}

// ByName returns a fresh Profile for one of the built-in applications.
// The returned profile is owned by the caller and may be modified.
func ByName(name string) (*Profile, error) {
	switch name {
	case Xapian:
		return newXapian(), nil
	case Masstree:
		return newMasstree(), nil
	case Moses:
		return newMoses(), nil
	case Sphinx:
		return newSphinx(), nil
	case ImgDNN:
		return newImgDNN(), nil
	}
	return nil, fmt.Errorf("app: unknown application %q (have %v)", name, Names())
}

// MustByName is ByName for static names; it panics on error.
func MustByName(name string) *Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

const refFreq = 2.1 // GHz, the testbed's non-turbo maximum

// newXapian models the Xapian search engine over English Wikipedia:
// millisecond-scale queries whose cost tracks term count, moderate tail.
// SLA 8 ms; Table 3 p99 latency 2.74/3.61/4.62 ms at 20/50/70% load.
func newXapian() *Profile {
	return &Profile{
		Name:           Xapian,
		SLA:            8 * sim.Millisecond,
		Workers:        20,
		RefFreq:        refFreq,
		MemFrac:        0.15,
		ContentionCoef: 0.30,
		Sampler: &TailedSampler{
			BaseUS:     300,
			CoefUS:     650,
			Sigma1:     0.42,
			Inter:      0.5,
			TypeMuls:   []float64{1},
			TypeProbs:  []float64{1},
			NoiseSigma: 0.10,
			TailProb:   0.008,
			TailScale:  1300,
			TailAlpha:  2.6,
		},
	}
}

// newMasstree models the Masstree key-value store under YCSB-A-like traffic
// (two request classes: cheap GETs, dearer PUTs): tens-of-microseconds
// requests, 8 workers. SLA 1 ms; p99 0.191/0.402/0.657 ms.
func newMasstree() *Profile {
	return &Profile{
		Name:           Masstree,
		SLA:            1 * sim.Millisecond,
		Workers:        8,
		RefFreq:        refFreq,
		MemFrac:        0.35, // KV stores are memory-latency bound
		ContentionCoef: 0.30,
		Sampler: &TailedSampler{
			BaseUS:     20,
			CoefUS:     32,
			Sigma1:     0.52,
			Inter:      0.4,
			TypeMuls:   []float64{1.25, 0.55}, // PUT, GET
			TypeProbs:  []float64{0.9, 0.1},   // "90% PUTs 10% GETs"
			NoiseSigma: 0.12,
			TailProb:   0.010,
			TailScale:  90,
			TailAlpha:  2.4,
		},
	}
}

// newMoses models the Moses statistical machine translation system:
// service cost grows with sentence length, strongly long-tailed
// (Fig. 1: tail ≈ 8× mean). SLA 120 ms; p99 31.0/77.9/100.5 ms.
func newMoses() *Profile {
	return &Profile{
		Name:           Moses,
		SLA:            120 * sim.Millisecond,
		Workers:        20,
		RefFreq:        refFreq,
		MemFrac:        0.10,
		ContentionCoef: 0.40,
		Sampler: &TailedSampler{
			BaseUS:     1500,
			CoefUS:     6200,
			Sigma1:     0.50,
			Inter:      0.6,
			TypeMuls:   []float64{1},
			TypeProbs:  []float64{1},
			NoiseSigma: 0.15,
			TailProb:   0.010,
			TailScale:  14000,
			TailAlpha:  1.9,
		},
	}
}

// newSphinx models the Sphinx speech recognizer on CMU AN4: second-scale
// utterance decoding with broad spread. SLA 4000 ms; p99 1760/2041/2293 ms.
func newSphinx() *Profile {
	return &Profile{
		Name:           Sphinx,
		SLA:            4000 * sim.Millisecond,
		Workers:        20,
		RefFreq:        refFreq,
		MemFrac:        0.10,
		ContentionCoef: 0.20,
		Sampler: &TailedSampler{
			BaseUS:     165000,
			CoefUS:     385000,
			Sigma1:     0.50,
			Inter:      0.4,
			TypeMuls:   []float64{1},
			TypeProbs:  []float64{1},
			NoiseSigma: 0.10,
			TailProb:   0.008,
			TailScale:  700000,
			TailAlpha:  3.0,
		},
	}
}

// newImgDNN models Img-dnn MNIST inference: a fixed-size network makes
// service time nearly deterministic (Table 3's p99 barely moves with load).
// SLA 5 ms; p99 2.302/2.295/2.476 ms.
func newImgDNN() *Profile {
	return &Profile{
		Name:           ImgDNN,
		SLA:            5 * sim.Millisecond,
		Workers:        20,
		RefFreq:        refFreq,
		MemFrac:        0.12,
		ContentionCoef: 0.05,
		Sampler: &TailedSampler{
			BaseUS:     1750,
			CoefUS:     150,
			Sigma1:     0.25,
			Inter:      0.2,
			TypeMuls:   []float64{1},
			TypeProbs:  []float64{1},
			NoiseSigma: 0.04,
			TailProb:   0,
			TailScale:  0,
			TailAlpha:  0,
		},
	}
}

// PaperTable3 records the paper's measured 99th-percentile latency (ms) at
// each load level, used by EXPERIMENTS.md comparisons and calibration tests.
var PaperTable3 = map[string]struct {
	SLAms float64
	P99ms [3]float64 // at 20%, 50%, 70% load
}{
	Xapian:   {8, [3]float64{2.742, 3.614, 4.617}},
	Masstree: {1, [3]float64{0.191, 0.402, 0.657}},
	Moses:    {120, [3]float64{30.99, 77.92, 100.49}},
	Sphinx:   {4000, [3]float64{1759.8, 2040.7, 2292.8}},
	ImgDNN:   {5, [3]float64{2.302, 2.295, 2.476}},
}
