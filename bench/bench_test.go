package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/serve"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecWellFormed holds BENCHMARK.json to the limits the driver applies
// before it makes a single run.
func TestSpecWellFormed(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit s, better lower`)
	}

	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if layer, _, ok := strings.Cut(m.Name, "."); !ok || layer == "" {
			t.Errorf("%s: a per-layer metric is named <module>.<metric>", m.Name)
		}
	}

	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", sp.Paths)
	}
	if got := strings.Join(sp.Command, " "); got != "go run ./bench" {
		t.Errorf("command %q, want go run ./bench", got)
	}
}

// TestWorkloadsPassTheirChecks runs every workload's timed and traced run at
// a tiny size: every output check holds, no operation fails, and the metrics
// emitted are exactly the ones declared (emit's checks are among them).
func TestWorkloadsPassTheirChecks(t *testing.T) {
	sp := testSpec(t)
	sz := tinySizing()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, run := range []struct {
				kind     string
				fn       func(*spec, workloadDef, sizing, int64) (*runResult, error)
				declared []metricSpec
			}{
				{"timed", runTimed, sp.EndToEnd},
				{"traced", runTraced, sp.PerLayer},
			} {
				res, err := run.fn(sp, w, sz, 7)
				if err != nil {
					t.Fatalf("%s: %v", run.kind, err)
				}
				for _, c := range res.checks {
					if !c.ok {
						t.Errorf("%s: check %q failed: %s", run.kind, c.name, c.detail)
					}
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%s: %d of %d operations failed", run.kind, res.failed, res.attempted)
				}
				if len(res.metrics) != len(run.declared) {
					t.Errorf("%s: %d metrics emitted, %d declared", run.kind, len(res.metrics), len(run.declared))
				}
				for i, m := range res.metrics {
					if m.Name != run.declared[i].Name || m.Unit != run.declared[i].Unit {
						t.Errorf("%s: metric %d is %s [%s], declared %s [%s]", run.kind, i,
							m.Name, m.Unit, run.declared[i].Name, run.declared[i].Unit)
					}
					if run.kind == "timed" && m.Value == 0 {
						t.Errorf("timed: end-to-end metric %s is zero", m.Name)
					}
				}
				var rec record
				if err := json.Unmarshal([]byte(recordJSON(res)), &rec); err != nil || !rec.Correct {
					t.Errorf("%s: record %s (%v)", run.kind, recordJSON(res), err)
				}
				if run.kind == "traced" {
					checkSpans(t, res.spans)
				}
			}
		})
	}
}

// checkSpans holds a traced run's spans to the file format's promises:
// dense IDs, parents before children, closed intervals.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	for i, s := range spans {
		if s.ID != i || s.Parent >= i || s.Parent < -1 {
			t.Fatalf("span %d has ID %d, parent %d", i, s.ID, s.Parent)
		}
		if s.EndNs < s.StartNs || s.Weight < 1 || s.Name == "" || s.Workload == "" {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
}

// TestHarnessValuesPinned holds the values this package copies from
// internal/exp, which keeps them unexported, to their originals: the same
// jobs run through the harness's own entry points give the same results. If a
// harness default moves, this fails and the benchmark's workload is changed
// or kept on purpose, not by accident.
func TestHarnessValuesPinned(t *testing.T) {
	sz := tinySizing()

	t.Run("agent and training server configuration", func(t *testing.T) {
		s, err := xapianSetup(sz.trainWorkers, sz.evalTrainEpisodes, sz.trainPeriod, sz.heldout)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := trainPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := s.TrainDeepPower()
		if err != nil {
			t.Fatal(err)
		}
		var theirs bytes.Buffer
		if err := dp.SavePolicy(&theirs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ours, theirs.Bytes()) {
			t.Error("trainPolicy and exp.Setup.TrainDeepPower trained different policies")
		}
	})

	t.Run("evaluation seed offset", func(t *testing.T) {
		j, err := setupSimEval(sz, 0)
		if err != nil {
			t.Fatal(err)
		}
		ej := j.(*simEvalJob)
		const seed = 7
		ours, err := ej.rep(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := loadPolicy(ej.policy)
		if err != nil {
			t.Fatal(err)
		}
		held := *ej.setup
		held.Scale.Seed = seed
		res, err := held.EvaluateOn(sim.NewEngine(), dp)
		if err != nil {
			t.Fatal(err)
		}
		var d digester
		d.serverResult(res)
		if ours.digest != d.sum() {
			t.Errorf("a sim_eval repetition (%.6f J) is not exp.Setup.EvaluateOn (%.6f J)", ours.energyJ, res.EnergyJ)
		}
	})

	t.Run("fleet generations, epoch, tier cadence and SLO", func(t *testing.T) {
		j, err := setupFleet(sz, 0)
		if err != nil {
			t.Fatal(err)
		}
		fj := j.(*fleetJob)
		cfgs, cfg, err := fj.campaign(shapeSeed)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := cluster.Run(context.Background(), cfg, cfgs, 1)
		if err != nil {
			t.Fatal(err)
		}
		scale := fj.setup.Scale
		scale.FleetShards = fj.shards
		fleet, err := exp.Fleet(context.Background(), scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		theirs := fleet.Campaigns[cluster.PowerAwareName]
		if ours.EnergyJ != theirs.EnergyJ || ours.Completions != theirs.Completions ||
			ours.Timeouts != theirs.Timeouts || !reflect.DeepEqual(ours.Routed, theirs.Routed) {
			t.Errorf("the fleet campaign (%.6f J, routed %v) is not exp.Fleet's power-aware campaign (%.6f J, routed %v)",
				ours.EnergyJ, ours.Routed, theirs.EnergyJ, theirs.Routed)
		}
	})
}

// flakyJob is a job whose result depends on more than its inputs.
type flakyJob struct{ calls uint64 }

func (j *flakyJob) rep(int64, *tracer) (outcome, error) {
	j.calls++
	return outcome{digest: j.calls, energyJ: 1, p99Ms: 1, ops: 1, attempted: 1}, nil
}
func (j *flakyJob) close() {}

// TestPerturbedDigestFails: a repetition that does not reproduce its digest
// must fail the run, timed and traced.
func TestPerturbedDigestFails(t *testing.T) {
	sp := testSpec(t)
	w := workloadDef{"flaky", func(sizing) int { return 3 },
		func(sizing, int64) (job, error) { return &flakyJob{}, nil }, nil}
	for kind, fn := range map[string]func(*spec, workloadDef, sizing, int64) (*runResult, error){
		"timed": runTimed, "traced": runTraced,
	} {
		res, err := fn(sp, w, tinySizing(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct() {
			t.Errorf("%s: a run whose digests differ passed its checks", kind)
		}
		var rec record
		if err := json.Unmarshal([]byte(recordJSON(res)), &rec); err != nil || rec.Correct {
			t.Errorf("%s: record says correct: %s", kind, recordJSON(res))
		}
	}
}

// silentJob reproduces its digest but measures no layer.
type silentJob struct{}

func (silentJob) rep(int64, *tracer) (outcome, error) {
	return outcome{digest: 1, energyJ: 1, p99Ms: 1, ops: 1, attempted: 1}, nil
}
func (silentJob) close() {}

// TestUnmeasuredLayerMetricFails: a traced run that does not fill a
// per-layer metric its workload lists must fail, not report zero.
func TestUnmeasuredLayerMetricFails(t *testing.T) {
	sp := testSpec(t)
	setup := func(sizing, int64) (job, error) { return silentJob{}, nil }
	res, err := runTraced(sp, workloadDef{"silent", func(sizing) int { return 1 }, setup, nil}, tinySizing(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("a workload that lists no layer of its own must pass on the probes alone: %+v", res.checks)
	}
	res, err = runTraced(sp, workloadDef{"silent", func(sizing) int { return 1 }, setup, []string{"sim.events"}}, tinySizing(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Error("a traced run that never measured sim.events, which its workload lists, passed")
	}
}

// TestZeroOthersLayers: only metrics other workloads list are zero-filled,
// and measuring one of them is an error.
func TestZeroOthersLayers(t *testing.T) {
	w := workloads[0] // sim_eval lists sim.events, not cluster.epochs
	got := values{"sim.events": 5}
	if ck := zeroOthersLayers(got, w); !ck.ok {
		t.Errorf("check failed: %s", ck.detail)
	}
	if v, ok := got["cluster.epochs"]; !ok || v != 0 {
		t.Error("another workload's metric was not zero-filled")
	}
	if _, ok := got["server.self_s"]; ok {
		t.Error("a metric the workload lists itself was filled for it")
	}
	if got["sim.events"] != 5 {
		t.Error("a measured value was overwritten")
	}
	if ck := zeroOthersLayers(values{"cluster.epochs": 3}, w); ck.ok {
		t.Error("sim_eval measuring cluster.epochs, which it does not list, passed")
	}
}

// TestLayerListsAreDeclared: every name in a workload's list is a declared
// per-layer metric.
func TestLayerListsAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range testSpec(t).PerLayer {
		declared[m.Name] = true
	}
	for _, w := range workloads {
		seen := map[string]bool{}
		for _, n := range w.layers {
			if !declared[n] {
				t.Errorf("%s lists %s, which BENCHMARK.json does not declare", w.name, n)
			}
			if seen[n] {
				t.Errorf("%s lists %s twice", w.name, n)
			}
			seen[n] = true
		}
	}
}

// TestSecondsIsNotAKnob: the driver's -seconds is accepted only at the value
// the work is sized for.
func TestSecondsIsNotAKnob(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir("bench") })
	var stderr bytes.Buffer
	if code := run([]string{"-workload", "sim_eval", "-seconds", "7"}, io.Discard, &stderr); code != 2 {
		t.Errorf("-seconds 7 exited %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "run_seconds") {
		t.Errorf("stderr does not name run_seconds: %s", stderr.String())
	}
}

// TestAgreementIsTwoSided: two sets of the same binary must agree in both
// directions.
func TestAgreementIsTwoSided(t *testing.T) {
	bound := 0.15
	m := metricSpec{Name: "rep_host_s", Unit: "s", Better: "lower", Bound: &bound}
	fast, slow := []float64{1, 1, 1, 1}, []float64{1.3, 1.3, 1.3, 1.3}
	for name, tc := range map[string]struct {
		a, b []float64
		ok   bool
	}{
		"equal":    {fast, fast, true},
		"B slower": {fast, slow, false},
		"A slower": {slow, fast, false}, // gap -0.23
	} {
		if gap, verdict, ok := agreement(m, tc.a, tc.b, true); ok != tc.ok {
			t.Errorf("%s: gap %+.3f, verdict %q, ok = %v, want %v", name, gap, verdict, ok, tc.ok)
		}
	}
}

// TestUnsettledDaemonFails: wire conservation must hold exactly.
func TestUnsettledDaemonFails(t *testing.T) {
	ok := serve.Telemetry{Accepted: 100, Arrivals: 100}
	if !settled(ok, 100) {
		t.Error("a drained daemon with accepted == arrivals == sent is settled")
	}
	for name, tel := range map[string]serve.Telemetry{
		"accepted != arrivals": {Accepted: 100, Arrivals: 99},
		"accepted != sent":     {Accepted: 99, Arrivals: 99},
		"still queued":         {Accepted: 100, Arrivals: 100, QueueLen: 1},
		"still in service":     {Accepted: 100, Arrivals: 100, BusyCores: 1},
	} {
		if settled(tel, 100) {
			t.Errorf("%s: reported settled", name)
		}
	}
}

// TestFailedOperationsFail: a run is incorrect when any operation failed,
// even with every check passing.
func TestFailedOperationsFail(t *testing.T) {
	res := &runResult{attempted: 10, failed: 1, checks: []check{{"fine", true, ""}}}
	if res.correct() {
		t.Error("a run with a failed operation is correct")
	}
}

func TestEmitChecksDeclaredAgainstEmitted(t *testing.T) {
	declared := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	for name, tc := range map[string]struct {
		got values
		ok  bool
	}{
		"exact":        {values{"a": 1, "b": 2}, true},
		"missing":      {values{"a": 1}, false},
		"undeclared":   {values{"a": 1, "b": 2, "c": 3}, false},
		"not a number": {values{"a": 1, "b": math.NaN()}, false},
		"negative":     {values{"a": 1, "b": -1}, false},
	} {
		if _, cks := emit(declared, tc.got); allOK(cks) != tc.ok {
			t.Errorf("%s: checks ok = %v, want %v", name, allOK(cks), tc.ok)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus its children's, a
// sampled child counting once per call it stands for.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", StartNs: 0, EndNs: 1000, Weight: 1},
		{ID: 1, Parent: 0, Name: spanRun, StartNs: 100, EndNs: 900, Weight: 1},
		{ID: 2, Parent: 1, Name: spanTick, StartNs: 200, EndNs: 210, Weight: 16},
		{ID: 3, Parent: 1, Name: spanStep, StartNs: 300, EndNs: 400, Weight: 1},
		{ID: 4, Parent: 1, Name: spanTick, StartNs: 500, EndNs: 520, Weight: 16},
	}
	want := []int64{200, 800 - 160 - 100 - 320, 10, 100, 20}
	for i, got := range selfNs(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d ns, want %d", i, got, want[i])
		}
	}
	tot := totalsByName(spans)
	if got := tot[spanTick]; got.calls != 32 || got.ns != 160+320 {
		t.Errorf("tick totals %+v, want 32 calls, 480 ns", got)
	}
	if got := tot[spanRun]; got.calls != 1 || got.selfNs != 220 {
		t.Errorf("run totals %+v, want 1 call, 220 ns self", got)
	}
}

// TestSpreadMatchesPythonQuantiles: statistics.quantiles(range(1, 11), n=4)
// is [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSubSeedsRepeatTheFirst(t *testing.T) {
	for _, reps := range []int{2, 3, 9} {
		if subOf(0, reps) != 0 || subOf(reps-1, reps) != 0 {
			t.Errorf("%d repetitions: first and last must share sub-seed 0", reps)
		}
		for i := 1; i < reps-1; i++ {
			if subOf(i, reps) != i {
				t.Errorf("%d repetitions: repetition %d has sub-seed %d", reps, i, subOf(i, reps))
			}
		}
	}
}

// TestPooledP99MatchesSort: the bucketed selection is the nearest-rank
// percentile of the concatenated samples.
func TestPooledP99MatchesSort(t *testing.T) {
	rng := sim.NewRNG(3)
	var shards []*server.Result
	var all []float64
	for s := 0; s < 5; s++ {
		lat := make([]float64, 1000+137*s)
		for i := range lat {
			lat[i] = rng.Pareto(0.001, 1.5) // heavy-tailed, like the real thing
		}
		shards = append(shards, &server.Result{Latencies: lat})
		all = append(all, lat...)
	}
	sort.Float64s(all)
	want := all[int(math.Ceil(0.99*float64(len(all))))-1]
	if got := pooledP99(shards); got != want {
		t.Errorf("pooled p99 %v, sorted reference %v", got, want)
	}
	if got := pooledP99(nil); got != 0 {
		t.Errorf("pooled p99 of nothing is %v", got)
	}
}
