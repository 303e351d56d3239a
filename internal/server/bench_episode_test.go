package server

import (
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// benchEpisode runs one simulated episode and returns the engine so callers
// can read event counts. The configuration mirrors a quick-scale training
// episode: the Xapian profile on 4 workers under a diurnal trace, latency
// retention off (the long-training-run configuration the fast path targets).
func benchEpisode(b *testing.B, seed int64) *sim.Engine {
	b.Helper()
	prof, err := app.ByName(app.Xapian)
	if err != nil {
		b.Fatal(err)
	}
	prof.Workers = 4
	trace := workload.Diurnal(workload.DefaultDiurnal()).ScaleToPeak(300)
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: seed, DiscardLatencies: true}, &maxFreqPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(trace, 10*sim.Second); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkServerEpisode measures full-episode throughput of the simulation
// core — event engine, server loop, queue, power accounting — in fired
// events per wall-clock second. results/BENCH_sim.json snapshots its output
// before and after the typed-heap/pool fast path.
func BenchmarkServerEpisode(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng := benchEpisode(b, int64(i+1))
		events += eng.Fired()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/episode")
}

// BenchmarkEngineInjectEpoch measures one fleet shard's epoch through the
// server's external entry, the path cluster.Run drives for every shard and
// epoch: BeginExternal, 150 Inject calls spread over a 100 ms epoch,
// RunSegment to its end, and End, on a 4-core Xapian server. Injected
// arrivals are posted (sim.Engine.Post) and wait outside the event heap, so
// this is where the heap-versus-post cost of an epoch shows.
func BenchmarkEngineInjectEpoch(b *testing.B) {
	const (
		epoch    = 100 * sim.Millisecond
		arrivals = 150
	)
	prof, err := app.ByName(app.Xapian)
	if err != nil {
		b.Fatal(err)
	}
	prof.Workers = 4
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: 1, DiscardLatencies: true}, &maxFreqPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := eng.Now()
		if err := s.BeginExternal(epoch); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < arrivals; k++ {
			if err := s.Inject(start + sim.Time(k)*epoch/arrivals); err != nil {
				b.Fatal(err)
			}
		}
		s.RunSegment(start + epoch)
		s.End()
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Fired())/b.Elapsed().Seconds(), "events/sec")
}
