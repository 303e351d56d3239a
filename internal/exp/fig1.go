package exp

import (
	"context"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// Fig1Result holds the service-time CDFs of Fig. 1: for each application,
// the CDF of service time divided by its mean, demonstrating the long tail
// (Moses' tail is ≈ 8× its mean).
type Fig1Result struct {
	// Apps maps application name → CDF points over normalized service time.
	Apps map[string][]stats.CDFPoint
	// TailOverMean maps application name → p99.9 / mean.
	TailOverMean map[string]float64
}

// fig1Apps are the applications the paper plots.
var fig1Apps = []string{app.Xapian, app.Masstree, app.Moses, app.Sphinx}

// Fig1 samples each application's request population and builds normalized
// service-time CDFs. Each application is one pool work unit with its own
// profile and a private RNG derived from the "fig1-<app>" substream of the
// experiment seed.
func Fig1(ctx context.Context, scale Scale, workers int) (*Fig1Result, error) {
	type fig1Out struct {
		cdf  []stats.CDFPoint
		tail float64
	}
	outs, err := pool.Map(ctx, fig1Apps, workers, func(_ context.Context, name string, _ int) (fig1Out, error) {
		prof := app.MustByName(name)
		rng := sim.NewRNG(sim.SubSeed(scale.Seed, "fig1-"+name))
		xs := make([]float64, scale.Samples)
		for i := range xs {
			xs[i] = prof.Sampler.Sample(rng).ServiceRef.Seconds()
		}
		mean := stats.Mean(xs)
		norm := make([]float64, len(xs))
		for i, x := range xs {
			norm[i] = x / mean
		}
		return fig1Out{cdf: stats.CDF(norm, 200), tail: stats.Percentile(norm, 99.9)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Apps:         map[string][]stats.CDFPoint{},
		TailOverMean: map[string]float64{},
	}
	for i, name := range fig1Apps {
		res.Apps[name] = outs[i].cdf
		res.TailOverMean[name] = outs[i].tail
	}
	return res, nil
}

// Table renders the tail/mean summary.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 1 — service-time skew (normalized to mean)",
		Columns: []string{"app", "p50/mean", "p99/mean", "p99.9/mean"},
	}
	for _, name := range fig1Apps {
		cdf := r.Apps[name]
		t.AddRow(name, f2(quantileOf(cdf, 0.50)), f2(quantileOf(cdf, 0.99)), f2(r.TailOverMean[name]))
	}
	return t
}

// Artifacts renders the skew table and the CDF curves.
func (r *Fig1Result) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fig1_service_time_skew", r.Table()),
		csvArtifact("fig1_cdf", r.CSVCurves()),
	}
}

// CSVCurves renders all CDF curves as long-form CSV (app, x, p).
func (r *Fig1Result) CSVCurves() string {
	t := &Table{Columns: []string{"app", "service_over_mean", "cdf"}}
	for _, name := range fig1Apps {
		for _, pt := range r.Apps[name] {
			t.AddRow(name, f(pt.X), f(pt.P))
		}
	}
	return t.CSV()
}

func quantileOf(cdf []stats.CDFPoint, p float64) float64 {
	for _, pt := range cdf {
		if pt.P >= p {
			return pt.X
		}
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].X
}
