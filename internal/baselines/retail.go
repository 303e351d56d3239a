package baselines

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/regress"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// cpuFreq aliases cpu.Freq for the shared scaling helper.
type cpuFreq = cpu.Freq

// Retail reimplements ReTail (Chen et al., HPCA 2022) as this paper
// describes it (§2.2, §6): a linear-regression service-time predictor plus a
// per-request frequency selector that "selects the minimum frequency at
// which the execution of all requests in the queue will not result in a
// timeout", applied when a request begins processing.
type Retail struct {
	server.BasePolicy
	model *regress.Linear
	// Safety discounts the available slack (default 0.9) to absorb
	// prediction error, mirroring ReTail's conservatism.
	Safety float64
	// Pad is added to every prediction; FitRetail sets it to the 95th
	// percentile of the training-set underprediction residuals, the
	// error-calibration real prediction-based schedulers must do.
	Pad sim.Time

	// levels is the ladder's operating points, fixed for the run.
	levels []cpu.Freq
}

// NewRetail builds the policy around a fitted predictor.
func NewRetail(model *regress.Linear) *Retail {
	return &Retail{model: model, Safety: 0.9}
}

// FitRetail fits the linear predictor from profiling samples and returns the
// policy.
func FitRetail(samples []ServiceSample) (*Retail, error) {
	X, y := SplitXY(samples)
	m, err := regress.Fit(X, y, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("baselines: fitting ReTail predictor: %w", err)
	}
	p := NewRetail(m)
	p.Pad = residualPad(m.PredictAll(X), y, 0.95)
	return p, nil
}

// residualPad returns the q-quantile of positive (actual − predicted)
// residuals — how much real schedulers must pad predictions to stay safe.
func residualPad(pred, actual []float64, q float64) sim.Time {
	var under []float64
	for i := range pred {
		if d := actual[i] - pred[i]; d > 0 {
			under = append(under, d)
		}
	}
	if len(under) == 0 {
		return 0
	}
	return sim.Seconds(stats.Percentile(under, q*100))
}

// Name implements server.Policy.
func (p *Retail) Name() string { return "retail" }

// Init implements server.Policy: idle cores start at the floor frequency.
func (p *Retail) Init(c server.Control) {
	p.BasePolicy.Init(c)
	p.levels = c.Ladder().Levels()
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, c.Ladder().Min)
	}
}

// PredictRef returns the padded predicted reference service time for a
// request's features, floored at a small positive value.
func (p *Retail) PredictRef(features []float64) sim.Time {
	pred := p.model.Predict(features)
	if pred < 1e-6 {
		pred = 1e-6
	}
	return sim.Seconds(pred) + p.Pad
}

// scaledService estimates wall time at frequency f assuming service scales
// linearly with frequency — the model real schedulers use, since the true
// memory-bound fraction of an application is unobservable to them.
func scaledService(c server.Control, ref sim.Time, f cpuFreq) sim.Time {
	return sim.Time(float64(ref) * float64(c.RefFreq()) / float64(f))
}

// OnDispatch implements server.Policy: ReTail's frequency decision point.
func (p *Retail) OnDispatch(r *server.Request, core int) {
	c := p.Ctl
	now := c.Now()
	sla := c.SLA()

	ownPred := p.PredictRef(r.Work.Features)
	ownSlack := sim.Time(float64(r.SLARemaining(now, sla)) * p.Safety)

	// Aggregate queue picture: total predicted work still waiting and the
	// tightest queued deadline.
	var queueRef sim.Time
	minQueueSlack := sim.MaxTime
	for i := 0; ; i++ {
		q := c.QueuePeek(i)
		if q == nil {
			break
		}
		queueRef += p.PredictRef(q.Work.Features)
		if s := q.SLARemaining(now, sla); s < minQueueSlack {
			minQueueSlack = s
		}
	}
	minQueueSlack = sim.Time(float64(minQueueSlack) * p.Safety)
	workers := sim.Time(c.NumCores())

	for _, f := range p.levels {
		// (a) This request finishes inside its own slack at f.
		if scaledService(c, ownPred, f) > ownSlack {
			continue
		}
		// (b) The queue drains before its tightest deadline if every
		// worker ran at f: per-worker backlog is queueRef/workers of
		// reference time, inflated by the frequency slowdown.
		if queueRef > 0 {
			drain := scaledService(c, queueRef, f) / workers
			if drain > minQueueSlack {
				continue
			}
		}
		c.SetFreq(core, f)
		return
	}
	// No level suffices: run flat out (the ladder's final level is turbo,
	// so reaching here means even turbo misses; keep it).
	c.SetTurbo(core)
}

// OnTick implements server.Policy: dispatch-time decisions only (the
// coarse granularity §5.3 contrasts with DeepPower), so ticks are a no-op.
func (p *Retail) OnTick(sim.Time) {}

// OnComplete implements server.Policy: an idling core drops to the floor.
func (p *Retail) OnComplete(r *server.Request, core int) {
	if p.Ctl.CoreRequest(core) == nil {
		p.Ctl.SetFreq(core, p.Ctl.Ladder().Min)
	}
}
