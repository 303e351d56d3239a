package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// benchLatencies draws a serving-like latency mix at a 10 ms SLA: 90 %
// between 50 and 500 us, 9.5 % between 0.5 and 3 ms, and 0.5 % timeouts
// between 10 and 14 ms, so the window stays healthy and its p99 sits in the
// middle band.
func benchLatencies(n int) []sim.Time {
	rng := rand.New(rand.NewSource(1))
	lats := make([]sim.Time, n)
	for i := range lats {
		switch u := rng.Float64(); {
		case u < 0.9:
			lats[i] = 50*sim.Microsecond + sim.Time(rng.Int63n(int64(450*sim.Microsecond)))
		case u < 0.995:
			lats[i] = 500*sim.Microsecond + sim.Time(rng.Int63n(int64(2500*sim.Microsecond)))
		default:
			lats[i] = 10*sim.Millisecond + sim.Time(rng.Int63n(int64(4*sim.Millisecond)))
		}
	}
	return lats
}

// BenchmarkGuardCheckHealth times the guard's health window at windows of
// 1 k, 20 k and 80 k completions per second (the last is the serve_open
// peak). check: one health check of a full window, ns per check. complete:
// one completion sliding through a full window, with a check every 50 ms of
// virtual time, ns per completion, its share of the checks included.
func BenchmarkGuardCheckHealth(b *testing.B) {
	for _, n := range []int{1000, 20000, 80000} {
		lats := benchLatencies(n)
		setup := func() (*GuardedPolicy, *fakeCtl, *server.Request) {
			g := NewGuardedPolicy(&server.BasePolicy{}, GuardConfig{})
			ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 4), turbo: 2.8}
			g.Init(ctl)
			req := &server.Request{}
			for i := 0; i < 2*n; i++ { // two windows: the window is full and at its high-water mark
				ctl.now += window / sim.Time(n)
				req.Arrive = ctl.now - lats[i%n]
				g.OnComplete(req, 0)
				if i%(n/20) == n/20-1 {
					g.checkHealth(ctl.now)
				}
			}
			return g, ctl, req
		}
		b.Run(fmt.Sprintf("window=%d/check", n), func(b *testing.B) {
			g, ctl, _ := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.checkHealth(ctl.now)
			}
			b.StopTimer()
			if g.SafeMode() {
				b.Fatal("benchmark window tripped the guard")
			}
		})
		b.Run(fmt.Sprintf("window=%d/complete", n), func(b *testing.B) {
			g, ctl, req := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctl.now += window / sim.Time(n)
				req.Arrive = ctl.now - lats[i%n]
				g.OnComplete(req, 0)
				if i%(n/20) == n/20-1 {
					g.checkHealth(ctl.now)
				}
			}
			b.StopTimer()
			if g.SafeMode() {
				b.Fatal("benchmark window tripped the guard")
			}
		})
	}
}
