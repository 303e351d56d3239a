package serve

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// TestSimActuatorLatencyBits pins the serving latency digests the bridge
// publishes: the exact bits of LatMeanSec and LatP99Sec that
// SimActuator.Stats reports, read every 100 ms over a fixed injected stream
// through the daemon's guarded controller, were captured when the digests
// were kept by a policy wrapper rather than read from the server.
func TestSimActuatorLatencyBits(t *testing.T) {
	const (
		wantMean  = uint64(0x3f2be23ac56f18f2)
		wantP99   = uint64(0x3f4515056daf9b12)
		wantReads = uint64(0xf804317560538d4)
	)
	pol := fault.WithGuard(control.NewThreadController(control.Params{BaseFreq: 0.4, ScalingCoef: 0.5}))
	act, err := NewSimActuator(server.Config{App: DefaultProfile(), Seed: 5, LatencyCap: 65536}, pol)
	if err != nil {
		t.Fatal(err)
	}
	const span = 500 * time.Millisecond
	if err := act.Begin(time.Second); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5).Stream("latency-bits")
	reads := fnv.New64a()
	var st BackendStats
	at := time.Duration(0)
	for t0 := time.Millisecond; t0 <= span; t0 += time.Millisecond {
		for {
			next := at + time.Duration(sim.Seconds(rng.Exp(60000)))
			if next >= t0 {
				break
			}
			at = next
			if err := act.Inject(at); err != nil {
				t.Fatal(err)
			}
		}
		if err := act.Advance(t0); err != nil {
			t.Fatal(err)
		}
		if t0%(100*time.Millisecond) == 0 {
			act.Stats(&st)
			var b [16]byte
			for i, v := range []uint64{math.Float64bits(st.LatMeanSec), math.Float64bits(st.LatP99Sec)} {
				for k := 0; k < 8; k++ {
					b[8*i+k] = byte(v >> (8 * k))
				}
			}
			reads.Write(b[:])
		}
	}
	res := act.End()
	if st.Counters.Completions < 20000 {
		t.Fatalf("degenerate stream: %d completions", st.Counters.Completions)
	}
	mean, p99 := math.Float64bits(st.LatMeanSec), math.Float64bits(st.LatP99Sec)
	if mean != wantMean || p99 != wantP99 || reads.Sum64() != wantReads {
		t.Errorf("latency bits mean %#x p99 %#x reads %#x, want %#x %#x %#x (mean %v p99 %v, %d completions)",
			mean, p99, reads.Sum64(), wantMean, wantP99, wantReads, st.LatMeanSec, st.LatP99Sec, res.Counters.Completions)
	}
}
