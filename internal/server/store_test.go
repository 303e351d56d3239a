package server_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// widthSampler refills Work in place with dim features, so its runs leave
// feature arrays of that width in the run store for featureChecker to catch
// if a later run reads one before rewriting it.
type widthSampler struct {
	dim     int
	service sim.Time
}

func (w widthSampler) Sample(r *sim.RNG) app.Work {
	var out app.Work
	w.SampleInto(r, &out)
	return out
}

func (w widthSampler) SampleInto(r *sim.RNG, out *app.Work) {
	out.ServiceRef = sim.Seconds(r.Exp(1 / w.service.Seconds()))
	out.Features = out.Features[:0]
	for i := 0; i < w.dim; i++ {
		out.Features = append(out.Features, -7)
	}
}

func (w widthSampler) FeatureDim() int { return w.dim }

// featureChecker counts arriving flat requests whose features are not the
// width their sampler writes.
type featureChecker struct {
	*control.ThreadController
	dim int
	bad int
}

func (p *featureChecker) OnArrival(r *server.Request) {
	if r.Stage < 0 && len(r.Work.Features) != p.dim {
		p.bad++
	}
}

// storeRun is one server run of a recycling test: cfg under a thread
// controller over trace for dur.
type storeRun struct {
	name  string
	cfg   server.Config
	trace *workload.Trace
	dur   sim.Time
}

// run executes r on a fresh engine and reports its digest and whether New
// found a warm store. It returns errors rather than failing t, so the
// concurrent test can call it from its own goroutines.
func (r storeRun) run() (digest string, warm bool, err error) {
	dim := -1 // DAG stages carry no features to check
	if r.cfg.App.Sampler != nil {
		dim = r.cfg.App.Sampler.FeatureDim()
	}
	pol := &featureChecker{
		ThreadController: control.NewThreadController(control.Params{BaseFreq: 0.3, ScalingCoef: 0.6}),
		dim:              dim,
	}
	srv, err := server.New(sim.NewEngine(), r.cfg, pol)
	if err != nil {
		return "", false, err
	}
	warm = srv.WarmStart()
	res, err := srv.Run(r.trace, r.dur)
	switch {
	case err != nil:
		return "", warm, err
	case res.Counters.Completions == 0:
		return "", warm, fmt.Errorf("%s: degenerate run, no completions", r.name)
	case dim >= 0 && pol.bad > 0:
		return "", warm, fmt.Errorf("%s: %d arrivals carried a feature vector not of width %d", r.name, pol.bad, dim)
	}
	return resultDigest(res), warm, nil
}

// mustRun is run for the test's own goroutine.
func (r storeRun) mustRun(t *testing.T) (digest string, warm bool) {
	t.Helper()
	digest, warm, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	return digest, warm
}

// storeRuns returns the subjects — a flat Xapian server and a DAG server —
// and the predecessors that leave different storage in the run store: wider
// and narrower feature arrays, DAG jobs of another stage count, and blocks
// cut short by a LatencyCap.
func storeRuns(t *testing.T) (subjects, preds []storeRun) {
	t.Helper()
	prof := xapian(t, 6)
	diamond, err := app.ParseDAG("diamond", "gate(300us); auth(600us):gate; search(1200us):gate; merge(400us):auth,search")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := app.ParseDAG("chain", "a(200us); b(200us):a; c(300us):b; d(100us):c; e(200us):d; f(100us):a")
	if err != nil {
		t.Fatal(err)
	}
	dagProf := func(d *app.DAG) *app.Profile {
		return &app.Profile{Name: d.Name, SLA: 6 * sim.Millisecond, Workers: 6, RefFreq: 2.1,
			ContentionCoef: 0.2, DAG: d}
	}
	flat := func(name string, dim int) *app.Profile {
		return &app.Profile{Name: name, SLA: 5 * sim.Millisecond, Workers: 6, RefFreq: 2.1,
			ContentionCoef: 0.1, Sampler: widthSampler{dim: dim, service: 400 * sim.Microsecond}}
	}
	subjects = []storeRun{
		{"xapian", server.Config{App: prof, Seed: 21, Warmup: 100 * sim.Millisecond},
			diurnal(prof, 0.7, sim.Second), sim.Second},
		{"dag", server.Config{App: dagProf(diamond), Seed: 22, RecordJobs: true},
			workload.Step(600, 1800, sim.Second, 4), sim.Second},
	}
	preds = []storeRun{
		{"wide-features", server.Config{App: flat("wide", 9), Seed: 31},
			workload.Constant(9000, sim.Second), sim.Second},
		{"no-features", server.Config{App: flat("none", 0), Seed: 32},
			workload.Constant(9000, sim.Second), sim.Second},
		{"dag-six-stages", server.Config{App: dagProf(chain), Seed: 33},
			workload.Constant(1500, sim.Second), sim.Second},
		{"latency-cap", server.Config{App: prof, Seed: 34, LatencyCap: 5000},
			diurnal(prof, 0.9, sim.Second), sim.Second},
	}
	return subjects, preds
}

// coldDigest runs r after two garbage collections, which empty the run-store
// pool, so its New starts from nothing.
func coldDigest(t *testing.T, r storeRun) string {
	t.Helper()
	runtime.GC()
	runtime.GC()
	d, _ := r.mustRun(t)
	return d
}

// TestRecycledStorageIsInvisible: a run's results are bit-identical whatever
// storage the run before it left in the run store — requests with feature
// vectors of another width, jobs of another DAG, blocks cut short by a
// latency cap — and to a run that started with an empty pool.
func TestRecycledStorageIsInvisible(t *testing.T) {
	subjects, preds := storeRuns(t)
	warmRuns := 0
	for _, sub := range subjects {
		want := coldDigest(t, sub)
		for _, pred := range preds {
			pred.mustRun(t)
			got, warm := sub.mustRun(t)
			if warm {
				warmRuns++
			}
			if got != want {
				t.Errorf("%s after %s: digest %s, want %s (cold start)", sub.name, pred.name, got, want)
			}
		}
	}
	if warmRuns == 0 && !server.RaceEnabled {
		t.Error("no run started from a warm store: the test did not exercise recycling")
	}
}

// TestRecycledStorageIsInvisibleConcurrent: servers ending and starting on
// many goroutines at once pass stores between them through the pool; every
// run still matches its serial, cold-start digest. Under the race detector
// it also checks no two servers share storage.
func TestRecycledStorageIsInvisibleConcurrent(t *testing.T) {
	subjects, preds := storeRuns(t)
	want := make([]string, len(subjects))
	for i, sub := range subjects {
		want[i] = coldDigest(t, sub)
	}
	const goroutines, runs = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < runs; k++ {
				if _, _, err := preds[(g+k)%len(preds)].run(); err != nil {
					t.Error(err)
					return
				}
				i := (g + k) % len(subjects)
				got, _, err := subjects[i].run()
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d run %d: %s digest %s, want %s", g, k, subjects[i].name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
