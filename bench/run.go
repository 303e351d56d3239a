package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/deeppower/deeppower/internal/stats"
)

// runResult is one workload's record.
type runResult struct {
	workload  string
	reps      int
	metrics   []metric
	checks    []check
	attempted uint64
	failed    uint64
	notes     []string // printed beside the metrics, not part of them
	spans     []span   // traced runs only
}

func (r *runResult) correct() bool { return allOK(r.checks) && r.failed == 0 }

// setupMedian sets the workload up at least sz.setups times — and, a cheap
// set-up being the noisiest to time, again until sz.setupFor has gone by or
// maxSetups is reached — closing all but the last job, and returns that job
// with the median set-up time.
func setupMedian(w workloadDef, sz sizing, seed int64) (job, float64, error) {
	const maxSetups = 9
	var j job
	var times []float64
	start := time.Now()
	for i := 0; i < sz.setups || (i < maxSetups && time.Since(start) < sz.setupFor); i++ {
		if j != nil {
			j.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if j, err = w.setup(sz, seed); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return j, median(times), nil
}

// runTimed is the untraced run: set-up, then the live phase if the workload
// has one, then reps repetitions. It yields the end-to-end metrics.
func runTimed(sp *spec, w workloadDef, sz sizing, seed int64) (*runResult, error) {
	j, setupS, err := setupMedian(w, sz, seed)
	if err != nil {
		return nil, err
	}
	defer j.close()
	res := &runResult{workload: w.name, reps: w.reps(sz)}
	got := values{"setup_s": setupS}

	var lv *liveResult
	if lj, ok := j.(liveJob); ok {
		r, err := lj.live(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: live phase: %w", w.name, err)
		}
		lv = &r
		res.checks = append(res.checks, r.checks...)
		res.attempted += r.sent
		res.failed += r.failed
		res.notes = append(res.notes, r.notes...)
	}

	runtime.GC()
	outs := make([]outcome, res.reps)
	repS := make([]float64, res.reps)
	repCPU := make([]float64, res.reps) // CPU microseconds per operation
	var alloc uint64
	for i := range outs {
		before := readUsage()
		t0 := time.Now()
		o, err := j.rep(repSeed(seed, subOf(i, res.reps)), nil)
		repS[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		after := readUsage()
		repCPU[i] = (after.cpu - before.cpu).Seconds() * 1e6 / float64(max(1, o.ops))
		alloc += after.alloc - before.alloc
		// The benchmark's own arithmetic on the result stays outside the
		// timed and the allocation window.
		o.settle()
		outs[i] = o
	}

	for _, o := range outs {
		res.checks = append(res.checks, o.checks...)
		res.attempted += o.attempted
		res.failed += o.failed
	}
	last := res.reps - 1
	res.checks = append(res.checks, check{
		"repeated inputs reproduce the result digest", outs[0].digest == outs[last].digest,
		fmt.Sprintf("repetition 0 %016x, repetition %d %016x", outs[0].digest, last, outs[last].digest)})

	// The simulated metrics are means over the distinct request streams; the
	// last repetition repeats the first and adds nothing. The mean, not the
	// median: over 400 trainings and 200 campaigns on as many streams it was
	// the steadier of the two for energy and p99 at every stream count.
	distinct := outs[:max(1, last)]
	pick := func(f func(outcome) float64) float64 {
		xs := make([]float64, len(distinct))
		for i, o := range distinct {
			xs[i] = f(o)
		}
		return stats.Mean(xs)
	}
	// Host time only ever gains from this box's other tenant, so the fastest
	// repetition is the steadiest reading of what the work costs.
	got["rep_host_s"] = stats.Min(repS)
	got["alloc_mb"] = float64(alloc) / float64(res.reps) / 1e6
	got["sim_energy_j"] = pick(func(o outcome) float64 { return o.energyJ })
	got["sim_p99_ms"] = pick(func(o outcome) float64 { return o.p99Ms })
	// Eq. 2's quantity from the side that is never zero: the share of
	// completions inside the SLA.
	got["sim_in_sla_rate"] = pick(func(o outcome) float64 { return 1 - o.timeoutRate })
	got["cpu_us_per_op"] = median(repCPU)
	if lv != nil {
		// A serving workload's costs are the wire path's: CPU per request
		// and heap per replay of the live phase, not the virtual-time
		// replay's.
		got["cpu_us_per_op"] = lv.cpuUsPerReq
		got["alloc_mb"] = lv.allocMB
	}
	res.notes = append(res.notes, fmt.Sprintf("rep_host_s is the fastest of %d repetitions; median %.4f s", res.reps, median(repS)))

	var cks []check
	res.metrics, cks = emit(sp.EndToEnd, got)
	res.checks = append(res.checks, cks...)
	return res, nil
}

// tracePairs is how many times the traced run repeats its pair of an untraced
// reference repetition and the same repetition with spans.
const tracePairs = 2

// runTraced is the traced run, separate from the timed repetitions: tracePairs
// times an untraced reference repetition and the same repetition again with
// spans, then the workload's extras and the layer probes. It yields the
// per-layer metrics.
func runTraced(sp *spec, w workloadDef, sz sizing, seed int64) (*runResult, error) {
	runtime.GC()
	j, err := w.setup(sz, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer j.close()
	res := &runResult{workload: w.name, reps: 1}
	tr := newTracer(w.name)
	got := values{}

	if lj, ok := j.(liveJob); ok {
		r, err := lj.live(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: live phase: %w", w.name, err)
		}
		res.checks = append(res.checks, r.checks...)
		res.attempted += r.sent
		res.failed += r.failed
		res.notes = append(res.notes, r.notes...)
		for k, v := range r.layer {
			got[k] = v
		}
	}

	// The reference and the traced repetition run tracePairs times each,
	// alternating, and the fastest of each kind is what the other is held to:
	// a single pair's difference is this box's noise (it has read 0.21 on a
	// repetition that records one span).
	rs := repSeed(seed, 0)
	var ref, traced outcome
	var mallocs uint64
	refS, tracedS, tracedSum := math.Inf(1), math.Inf(1), 0.0
	for pair := 0; pair < tracePairs; pair++ {
		runtime.GC()
		before := readUsage()
		t0 := time.Now()
		ref, err = j.rep(rs, nil)
		refS = min(refS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: reference repetition: %w", w.name, err)
		}
		mallocs = readUsage().mallocs - before.mallocs

		runtime.GC()
		root := tr.begin("rep", -1)
		tr.top = root
		traced, err = j.rep(rs, tr)
		tr.end(root)
		tr.top = -1
		if err != nil {
			return nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
		}
		s := float64(tr.spans[root].EndNs-tr.spans[root].StartNs) / 1e9
		tracedS, tracedSum = min(tracedS, s), tracedSum+s
		res.checks = append(res.checks, traced.checks...)
		res.checks = append(res.checks, check{
			"traced repetition reproduces the untraced digest", ref.digest == traced.digest,
			fmt.Sprintf("untraced %016x, traced %016x", ref.digest, traced.digest)})
		res.attempted += traced.attempted
		res.failed += traced.failed
	}
	for k, v := range traced.layer {
		got[k] = v
	}

	if ex, ok := j.(tracedExtras); ok {
		vs, cks, err := ex.extras(rs, tr, ref, refS)
		if err != nil {
			return nil, fmt.Errorf("%s: traced extras: %w", w.name, err)
		}
		res.checks = append(res.checks, cks...)
		for k, v := range vs {
			got[k] = v
		}
	}

	layersFromSpans(got, tr.spans, tracedSum, traced.requests)
	res.checks = append(res.checks, zeroOthersLayers(got, w))
	got["server.allocs_per_rep"] = float64(mallocs)
	got["trace.spans"] = float64(len(tr.spans))
	got["trace.overhead_frac"] = max(0, tracedS/refS-1)
	runProbes(got, sz)
	got["rl.update_share"] = got["rl.update_ns"] * got["rl.updates"] / 1e9 / refS

	res.spans = tr.spans
	var cks []check
	res.metrics, cks = emit(sp.PerLayer, got)
	res.checks = append(res.checks, cks...)
	res.notes = append(res.notes, expectationNotes(w.name, got)...)
	return res, nil
}

// zeroOthersLayers reports zero work for the layers the workload does not
// reach: the per-layer metrics other workloads list and it does not. What it
// lists itself, and what every workload measures, stays unfilled, so that
// emit finds a metric nobody measured. The check fails if the workload
// measured a metric it does not list.
func zeroOthersLayers(got values, w workloadDef) check {
	skip := map[string]bool{} // the workload's own metrics, then the ones already zeroed
	for _, n := range w.layers {
		skip[n] = true
	}
	var unlisted []string
	for _, v := range workloads {
		for _, n := range v.layers {
			if skip[n] {
				continue
			}
			skip[n] = true
			if _, ok := got[n]; ok {
				unlisted = append(unlisted, n)
			}
			got[n] = 0
		}
	}
	return check{w.name + ": measured only the per-layer metrics it lists", len(unlisted) == 0,
		fmt.Sprint("measured but not listed: ", unlisted)}
}

// expectations are the issue's acceptance criteria on per-layer metrics. They
// depend on the host's speed, so they are printed beside the metrics as met or
// not met and never fail a run.
var expectations = []struct {
	workload, metric string // workload "" = every workload
	atLeast          bool
	limit            float64
}{
	{"sim_eval", "server.share", true, 0.6},
	{"sim_eval", "rl.update_share", false, 0.02},
	{"train_single", "rl.update_share", true, 0.5},
	{"", "trace.overhead_frac", false, 0.15},
}

func expectationNotes(workload string, got values) []string {
	var notes []string
	for _, e := range expectations {
		if e.workload != "" && e.workload != workload {
			continue
		}
		v, op := got[e.metric], "<="
		met := v <= e.limit
		if e.atLeast {
			op, met = ">=", v >= e.limit
		}
		verdict := "met"
		if !met {
			verdict = "NOT MET"
		}
		notes = append(notes, fmt.Sprintf("expected %s %s %g: %.4g, %s", e.metric, op, e.limit, v, verdict))
	}
	return notes
}

// layersFromSpans fills the metrics that are sums over the traced
// repetitions' spans, per repetition. Run and callback spans are recorded
// nowhere else, so the totals need no subtree filter. tracedSum is the traced
// repetitions' total host time, requests what one of them completed.
func layersFromSpans(got values, spans []span, tracedSum float64, requests uint64) {
	tot := totalsByName(spans)
	if run := tot[spanRun]; run.calls > 0 {
		self := float64(run.selfNs) / 1e9
		got["server.self_s"] = self / tracePairs
		got["server.share"] = self / tracedSum
		if requests > 0 {
			got["server.ns_per_req"] = self / tracePairs * 1e9 / float64(requests)
		}
		got["server.segments"] = float64(run.calls) / tracePairs
	}
	for name, metric := range map[string]string{
		spanTick: "control.tick_ns", spanDispatch: "control.dispatch_ns", spanStep: "agent.step_ns",
	} {
		if t := tot[name]; t.calls > 0 {
			got[metric] = float64(t.ns) / float64(t.calls)
		}
	}
}
