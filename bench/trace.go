package main

import (
	"encoding/json"
	"os"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the boundary. Policy callbacks fire millions of times
// per repetition, so only one call in sampleEvery is timed; that span's
// Weight says how many calls it stands for.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // span ID, -1 at the top
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
	Weight   int    `json:"weight"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	// top is the span a repetition's own spans nest under (-1: none).
	top int
	// clockNs is what reading the clock costs. A sampled span is shortened
	// by it: the callbacks it times run for 100 ns or so, the clock read
	// inside the interval is half of that, and the unsampled calls the span
	// stands for never paid it.
	clockNs int64
}

func newTracer(workload string) *tracer {
	clock := int64(1 << 62)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		clock = min(clock, int64(time.Since(t0)))
	}
	return &tracer{epoch: time.Now(), workload: workload, top: -1, clockNs: clock}
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(time.Since(t.epoch)), Weight: 1,
	})
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndNs = int64(time.Since(t.epoch)) }

// add records a finished callback span standing for weight calls.
func (t *tracer) add(name string, parent int, start, end time.Time, weight int) {
	s := span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)), Weight: weight,
	}
	s.EndNs = max(s.StartNs, s.EndNs-t.clockNs)
	t.spans = append(t.spans, s)
}

// selfNs returns each span's self time: its duration minus the time its
// children cover, a sampled child counting Weight times.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= (s.EndNs - s.StartNs) * int64(s.Weight)
		}
	}
	return self
}

// spanTotals sums spans by name.
type spanTotal struct {
	calls  int64 // weighted
	ns     int64 // weighted duration
	selfNs int64 // unweighted: only unsampled spans have children
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfNs(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.calls += int64(s.Weight)
		t.ns += (s.EndNs - s.StartNs) * int64(s.Weight)
		t.selfNs += self[i]
		out[s.Name] = t
	}
	return out
}

// traceFile is what -trace <file> writes.
type traceFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Spans       []span      `json:"spans"`
}

func writeTrace(path string, fp fingerprint, spans []span) error {
	data, err := json.Marshal(traceFile{Fingerprint: fp, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sampleEvery is the policy-callback sampling stride. At 1 the timing calls
// themselves cost a third of a sim_eval repetition; at 16 they cost under 5%.
const sampleEvery = 16

// Span names the policy wrapper records.
const (
	spanTick     = "control.tick"     // OnTick that ran the thread controller only
	spanStep     = "agent.step"       // OnTick that also ran a DRL agent step
	spanDispatch = "control.dispatch" // OnDispatch
	spanRun      = "server.run"       // one Run / RunSegment / Advance call
	spanEpisode  = "agent.episode"    // one lockstep episode of the vector trainer
)

// tracedPolicy times the server.Policy callback seam from outside: the
// server's own time is then a run span's duration minus these children.
// Every OnTick is timed (1 kHz of virtual time, cheap) so the ticks that ran
// an agent step can be told apart afterwards; OnDispatch is sampled.
type tracedPolicy struct {
	inner  server.Policy
	tr     *tracer
	parent int // run span the callbacks nest under; the driver moves it

	// dp is the wrapped policy when it is a DeepPower agent, else nil.
	dp *agent.DeepPower

	ticks, dispatches uint64
	// learnSteps counts agent steps that changed the critic loss, i.e. ran
	// gradient updates — the only public trace an update leaves.
	learnSteps uint64
}

func newTracedPolicy(inner server.Policy, tr *tracer) *tracedPolicy {
	dp, _ := inner.(*agent.DeepPower)
	return &tracedPolicy{inner: inner, tr: tr, parent: -1, dp: dp}
}

func (p *tracedPolicy) Name() string          { return p.inner.Name() }
func (p *tracedPolicy) Init(c server.Control) { p.inner.Init(c) }

func (p *tracedPolicy) OnTick(now sim.Time) {
	var steps int
	var loss float64
	if p.dp != nil {
		steps, loss = p.dp.StepCount(), p.dp.LastCriticLoss()
	}
	t0 := time.Now()
	p.inner.OnTick(now)
	t1 := time.Now()
	p.ticks++
	switch {
	case p.dp != nil && p.dp.StepCount() != steps:
		p.tr.add(spanStep, p.parent, t0, t1, 1)
		if p.dp.LastCriticLoss() != loss {
			p.learnSteps++
		}
	case p.ticks%sampleEvery == 0:
		p.tr.add(spanTick, p.parent, t0, t1, sampleEvery)
	}
}

func (p *tracedPolicy) OnArrival(r *server.Request) { p.inner.OnArrival(r) }

func (p *tracedPolicy) OnDispatch(r *server.Request, core int) {
	p.dispatches++
	if p.dispatches%sampleEvery != 0 {
		p.inner.OnDispatch(r, core)
		return
	}
	t0 := time.Now()
	p.inner.OnDispatch(r, core)
	p.tr.add(spanDispatch, p.parent, t0, time.Now(), sampleEvery)
}

func (p *tracedPolicy) OnComplete(r *server.Request, core int) { p.inner.OnComplete(r, core) }

// tracedTrainable lets agent.Train drive a traced DeepPower agent; the
// reporter methods keep the episode statistics identical to an untraced run.
type tracedTrainable struct {
	*tracedPolicy
}

func (t tracedTrainable) SetTrain(train bool)     { t.dp.SetTrain(train) }
func (t tracedTrainable) Return() float64         { return t.dp.Return() }
func (t tracedTrainable) LastCriticLoss() float64 { return t.dp.LastCriticLoss() }
func (t tracedTrainable) DivergenceCount() uint64 { return t.dp.DivergenceCount() }
