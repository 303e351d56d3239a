package baselines

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// Gemini reimplements Gemini (Zhou et al., MICRO 2020) as this paper
// describes it (§2.2, §6): a neural-network service-time predictor and a
// two-stage frequency policy — a baseline frequency chosen from the
// prediction when the request starts, boosted to the maximum frequency when
// the request or the waiting queue risks timing out.
type Gemini struct {
	server.BasePolicy
	model *nn.MLP
	// featMean/featStd normalize features for the network.
	featMean, featStd []float64
	// Margin discounts slack at stage 1 (default 0.85).
	Margin float64
	// Pad is added to every prediction (set by FitGemini from training
	// residuals).
	Pad sim.Time
	// BoostHeadroom is the fraction of a request's deadline that must
	// remain for it to stay un-boosted (default 0.15).
	BoostHeadroom float64

	// predicted holds each core's stage-1 prediction.
	predicted []sim.Time
	// levels is the ladder's operating points, fixed for the run.
	levels []cpu.Freq
	// featBuf holds one request's standardized features.
	featBuf []float64
}

// GeminiTrainConfig controls predictor fitting.
type GeminiTrainConfig struct {
	Hidden []int // default [16, 8]
	Epochs int   // default 60
	LR     float64
	Seed   int64
}

// FitGemini trains the NN predictor on profiling samples and returns the
// policy.
func FitGemini(samples []ServiceSample, cfg GeminiTrainConfig) (*Gemini, error) {
	if len(samples) < 10 {
		return nil, fmt.Errorf("baselines: %d samples too few to fit Gemini", len(samples))
	}
	if cfg.Hidden == nil {
		cfg.Hidden = []int{16, 8}
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	if cfg.LR == 0 {
		cfg.LR = 3e-3
	}
	d := len(samples[0].Features)

	// Standardize features; scale targets to milliseconds so the loss is
	// O(1) across applications with second-scale vs microsecond services.
	mean := make([]float64, d)
	std := make([]float64, d)
	for _, s := range samples {
		for i, f := range s.Features {
			mean[i] += f / float64(len(samples))
		}
	}
	for _, s := range samples {
		for i, f := range s.Features {
			diff := f - mean[i]
			std[i] += diff * diff / float64(len(samples))
		}
	}
	var yScale float64
	for _, s := range samples {
		yScale += s.Service / float64(len(samples))
	}
	if yScale <= 0 {
		return nil, fmt.Errorf("baselines: non-positive mean service in samples")
	}
	for i := range std {
		if std[i] < 1e-12 {
			std[i] = 1
		} else {
			std[i] = math.Sqrt(std[i])
		}
	}

	rng := sim.NewRNG(sim.SubSeed(cfg.Seed, "gemini-train"))
	sizes := append([]int{d}, cfg.Hidden...)
	sizes = append(sizes, 1)
	m := nn.NewMLP(sizes, nn.ReLU, nn.Identity, rng)
	opt := nn.NewAdam(m.Layers, cfg.LR)
	grad := make([]float64, 1)
	x := make([]float64, d)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for bi, s := range samples {
			for i, f := range s.Features {
				x[i] = (f - mean[i]) / std[i]
			}
			pred := m.Forward(x)
			nn.MSE(pred, []float64{s.Service / yScale}, grad)
			m.Backward(grad)
			if bi%32 == 31 {
				opt.Step()
			}
		}
		opt.Step()
	}

	// Fold the target scale into the output layer so Predict returns
	// seconds directly.
	outLayer := m.Layers[len(m.Layers)-1]
	for i := range outLayer.W {
		outLayer.W[i] *= yScale
	}
	outLayer.B[0] *= yScale

	g := &Gemini{
		model:         m,
		featMean:      mean,
		featStd:       std,
		Margin:        0.85,
		BoostHeadroom: 0.15,
	}
	preds := make([]float64, len(samples))
	actuals := make([]float64, len(samples))
	for i, sm := range samples {
		preds[i] = g.rawPredict(sm.Features)
		actuals[i] = sm.Service
	}
	g.Pad = residualPad(preds, actuals, 0.90)
	return g, nil
}

// Name implements server.Policy.
func (p *Gemini) Name() string { return "gemini" }

// Init implements server.Policy.
func (p *Gemini) Init(c server.Control) {
	p.BasePolicy.Init(c)
	p.predicted = make([]sim.Time, c.NumCores())
	p.levels = c.Ladder().Levels()
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, c.Ladder().Min)
	}
}

// rawPredict evaluates the network on standardized features (seconds).
func (p *Gemini) rawPredict(features []float64) float64 {
	if cap(p.featBuf) < len(features) {
		p.featBuf = make([]float64, len(features))
	}
	x := p.featBuf[:len(features)]
	for i, f := range features {
		x[i] = (f - p.featMean[i]) / p.featStd[i]
	}
	pred := p.model.Forward(x)[0]
	if pred < 1e-6 {
		pred = 1e-6
	}
	return pred
}

// PredictRef returns the padded service-time prediction in reference time.
func (p *Gemini) PredictRef(features []float64) sim.Time {
	return sim.Seconds(p.rawPredict(features)) + p.Pad
}

// OnDispatch implements server.Policy: Gemini's stage 1 — pick the lowest
// frequency whose predicted completion fits in the discounted slack.
func (p *Gemini) OnDispatch(r *server.Request, core int) {
	c := p.Ctl
	pred := p.PredictRef(r.Work.Features)
	p.predicted[core] = pred
	slack := sim.Time(float64(r.SLARemaining(c.Now(), c.SLA())) * p.Margin)
	for _, f := range p.levels {
		if scaledService(c, pred, f) <= slack {
			c.SetFreq(core, f)
			return
		}
	}
	c.SetTurbo(core)
}

// OnTick implements server.Policy: Gemini's stage 2 — boost requests (and,
// under queue pressure, every busy core) to the maximum frequency when a
// timeout threatens.
func (p *Gemini) OnTick(now sim.Time) {
	c := p.Ctl
	sla := c.SLA()

	// Queue risk: any waiting request close to its deadline forces a
	// global boost so the queue drains.
	queueRisk := false
	for i := 0; ; i++ {
		q := c.QueuePeek(i)
		if q == nil {
			break
		}
		if q.SLARemaining(now, sla) < sim.Time(float64(sla)*0.5) {
			queueRisk = true
			break
		}
	}

	for i := 0; i < c.NumCores(); i++ {
		r := c.CoreRequest(i)
		if r == nil {
			c.SetFreq(i, c.Ladder().Min)
			continue
		}
		if queueRisk {
			c.SetTurbo(i)
			continue
		}
		// Request risk: predicted completion at the current frequency
		// would eat into the final headroom of the deadline.
		pred := p.predicted[i]
		elapsed := now - r.Start
		wall := scaledService(c, pred, c.Freq(i))
		remaining := wall - elapsed
		if remaining < 0 {
			remaining = 0 // prediction exhausted; rely on deadline check
		}
		deadline := r.SLARemaining(now, sla)
		if remaining+sim.Time(float64(sla)*p.BoostHeadroom) > deadline {
			c.SetTurbo(i)
		}
	}
}

// OnComplete implements server.Policy.
func (p *Gemini) OnComplete(r *server.Request, core int) {
	p.predicted[core] = 0
	if p.Ctl.CoreRequest(core) == nil {
		p.Ctl.SetFreq(core, p.Ctl.Ladder().Min)
	}
}
