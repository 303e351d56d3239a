package exp

import (
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// TestEpisodeStepZeroAllocs is the allocation guard for the simulation fast
// path: once an episode reaches steady state — request pool, queue ring,
// event arena, and latency digests all warmed to their high-water marks — a
// 1 ms episode step (arrivals, dispatches, completions, the policy tick, and
// power accounting) must allocate zero bytes. Any regression in the typed
// heap, the request pool, the fifo ring, or the sampler fast path shows up
// here as a nonzero count.
func TestEpisodeStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		rate    float64
		policy  server.Policy
	}{
		{"4-workers-maxfreq", 4, 300, baselines.NewMaxFreq()},
		// The evaluation path: the thread controller writes every core's
		// score each tick and again at each dispatch, so every step moves
		// completion events and reads the level table and the idle set.
		{"20-workers-controller", 20, 6000,
			control.NewThreadController(control.Params{BaseFreq: 0.3, ScalingCoef: 0.6})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof, err := app.ByName(app.Xapian)
			if err != nil {
				t.Fatal(err)
			}
			prof.Workers = tc.workers
			// A constant-rate trace keeps the steady state genuinely steady:
			// no diurnal ramp can raise a high-water mark mid-measurement.
			trace := workload.Constant(tc.rate, 60*sim.Second)
			eng := sim.NewEngine()
			srv, err := server.New(eng, server.Config{
				App:  prof,
				Seed: 42,
				// The long-training-run configuration: latency samples stream
				// into the mean/p99 digests instead of being retained per
				// request.
				DiscardLatencies: true,
			}, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Begin(trace, 60*sim.Second); err != nil {
				t.Fatal(err)
			}
			// Warm up for two simulated seconds to fill every pool.
			at := 2 * sim.Second
			eng.RunUntil(at)

			allocs := testing.AllocsPerRun(200, func() {
				at += sim.Millisecond
				eng.RunUntil(at)
			})
			if allocs != 0 {
				t.Errorf("steady-state episode step allocated %.2f times per 1ms step, want 0", allocs)
			}
		})
	}
}
