package baselines

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// Rubik reimplements the feature-free statistical comparator the paper's
// related work describes (Kasture et al., MICRO 2015): instead of
// predicting each request's service time from features, Rubik models the
// service-time *distribution* and plans against its tail — "Rubik takes the
// tail of the distribution as the predicted latency", which §6 notes makes
// the prediction overestimated for most requests.
type Rubik struct {
	server.BasePolicy
	// TailPred is the distribution-tail service estimate used for every
	// request (the profiling distribution's TailQ quantile).
	TailPred sim.Time
	// Safety discounts available slack, as in ReTail.
	Safety float64

	// levels is the ladder's operating points, fixed for the run.
	levels []cpu.Freq
}

// RubikTailQuantile is the distribution quantile Rubik plans against.
const RubikTailQuantile = 95.0

// FitRubik computes the tail estimate from profiling samples.
func FitRubik(samples []ServiceSample) (*Rubik, error) {
	if len(samples) < 10 {
		return nil, fmt.Errorf("baselines: %d samples too few to fit Rubik", len(samples))
	}
	services := make([]float64, len(samples))
	for i, s := range samples {
		services[i] = s.Service
	}
	return &Rubik{
		TailPred: sim.Seconds(stats.Percentile(services, RubikTailQuantile)),
		Safety:   0.9,
	}, nil
}

// Name implements server.Policy.
func (p *Rubik) Name() string { return "rubik" }

// Init implements server.Policy.
func (p *Rubik) Init(c server.Control) {
	p.BasePolicy.Init(c)
	p.levels = c.Ladder().Levels()
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, c.Ladder().Min)
	}
}

// OnDispatch implements server.Policy: pick the minimum frequency at which
// the tail-estimate service fits in the request's (and the queue's) slack.
func (p *Rubik) OnDispatch(r *server.Request, core int) {
	c := p.Ctl
	now := c.Now()
	sla := c.SLA()
	ownSlack := sim.Time(float64(r.SLARemaining(now, sla)) * p.Safety)

	queueLen := c.QueueLen()
	minQueueSlack := sim.MaxTime
	for i := 0; i < queueLen; i++ {
		if q := c.QueuePeek(i); q != nil {
			if s := q.SLARemaining(now, sla); s < minQueueSlack {
				minQueueSlack = s
			}
		}
	}
	minQueueSlack = sim.Time(float64(minQueueSlack) * p.Safety)
	workers := sim.Time(c.NumCores())

	for _, f := range p.levels {
		if scaledService(c, p.TailPred, f) > ownSlack {
			continue
		}
		if queueLen > 0 {
			drain := scaledService(c, p.TailPred*sim.Time(queueLen), f) / workers
			if drain > minQueueSlack {
				continue
			}
		}
		c.SetFreq(core, f)
		return
	}
	c.SetTurbo(core)
}

// OnComplete implements server.Policy.
func (p *Rubik) OnComplete(r *server.Request, core int) {
	if p.Ctl.CoreRequest(core) == nil {
		p.Ctl.SetFreq(core, p.Ctl.Ladder().Min)
	}
}

// OnTick implements server.Policy: dispatch-time decisions only.
func (p *Rubik) OnTick(sim.Time) {}
