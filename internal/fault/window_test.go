package fault

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// refWindow is the health window the guard's incremental one must agree
// with: a slice of completions, pruned from the front, whose rate is a count
// and whose p99 is a copy of every latency as float64 and a select over it.
type refWindow struct {
	samples []refSample
	lats    []float64
}

type refSample struct {
	at, latency sim.Time
	timedOut    bool
}

func (r *refWindow) prune(now sim.Time) {
	cut := now - window
	i := 0
	for i < len(r.samples) && r.samples[i].at < cut {
		i++
	}
	r.samples = append(r.samples[:0], r.samples[i:]...)
}

func (r *refWindow) health(cfg GuardConfig, sla sim.Time) (rate float64, p99 sim.Time, ok bool) {
	n := len(r.samples)
	if n < cfg.MinSamples {
		return 0, 0, true
	}
	timeouts := 0
	r.lats = r.lats[:0]
	for _, s := range r.samples {
		if s.timedOut {
			timeouts++
		}
		r.lats = append(r.lats, float64(s.latency))
	}
	rate = float64(timeouts) / float64(n)
	p99 = sim.Time(refQuickSelect(r.lats, int(math.Ceil(0.99*float64(n)))-1))
	ok = rate <= cfg.TimeoutRateLimit && p99 <= sim.Time(p99Factor*float64(sla))
	return rate, p99, ok
}

// refQuickSelect returns the k-th smallest element (0-indexed) of a, which
// it partially reorders in place.
func refQuickSelect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// Script operations: each is an (opcode, argument) byte pair.
const (
	opLatSmall = iota // one completion of latency arg ns (0 included)
	opLatTie          // one completion at one of four shared latencies
	opLatEdge         // one completion on a bucket edge, up to 2^62 ns
	opLatServe        // one completion at a serving-like latency
	opBurst           // 1 + arg%64 serving-like completions at one instant
	opAdvance         // move the clock arg x 100 us, no tick
	opTick            // move the clock arg%16 ms, then tick
	opGap             // move the clock past a whole window, then tick
	opHook            // the rollback hook succeeds iff arg is odd
	opInit            // Init again, as after an engine Reset
	numOps
)

// tieLatencies are the shared values opLatTie draws from: two healthy, one
// timeout at the default SLA, one over 1.5 x SLA.
var tieLatencies = [4]sim.Time{sim.Millisecond, 5 * sim.Millisecond, 12 * sim.Millisecond, 40 * sim.Millisecond}

// edgeLatency is a value on or next to the lower edge of a bucket: 2^e,
// 2^e - 1, 2^e + 1 or the next sub-bucket's edge, for e from 5 to 62.
func edgeLatency(arg byte) sim.Time {
	e := 5 + uint(arg)%58
	v := sim.Time(1) << e
	switch (arg / 58) % 4 {
	case 0:
		v--
	case 2:
		v++
	case 3:
		v += sim.Time(1) << (e - subBits)
	}
	return min(v, sim.Time(1)<<62)
}

// serveLatency maps arg to a serving-like latency: a body spread
// quadratically over 0 to 1.9 ms, and for the top four values (1.6 %) a
// tail of 10 to 13 ms, which times out at a 10 ms SLA.
func serveLatency(arg byte) sim.Time {
	if arg >= 252 {
		return sim.Time(arg-242) * sim.Millisecond
	}
	return sim.Time(arg) * sim.Time(arg) * 30
}

// windowRig drives a guard and the reference window through one script and
// checks, at every health check, that they read the window bit for bit
// alike and that the guard acts on the reading.
type windowRig struct {
	g      *GuardedPolicy
	ctl    *fakeCtl
	cfg    GuardConfig
	sla    sim.Time // the SLA the guard was last initialised with
	ref    refWindow
	hookOK bool
	req    server.Request

	judged, rollbacks, fallbacks, reengages, inits, huge, maxLen int
}

// rigConfigs are the guard configurations a script's first byte picks from:
// the default, and tighter ones whose MinSamples of 1 and 4 judge windows of
// one sample.
var rigConfigs = []GuardConfig{
	{MaxRollbacks: 2},
	{CheckEvery: 10 * sim.Millisecond, MinSamples: 1, MaxRollbacks: 1},
	{CheckEvery: 20 * sim.Millisecond, MinSamples: 4, TimeoutRateLimit: 0.3, MaxRollbacks: 3},
	{MinSamples: 33, TimeoutRateLimit: 0.1, Backoff: 100 * sim.Millisecond},
}

func newWindowRig(sel byte) *windowRig {
	r := &windowRig{}
	cfg := rigConfigs[int(sel)%len(rigConfigs)]
	cfg.Rollback = func() bool { return r.hookOK }
	r.g = NewGuardedPolicy(&server.BasePolicy{}, cfg)
	r.cfg = r.g.cfg
	r.ctl = &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 2), turbo: 2.8}
	r.sla = r.ctl.sla
	r.g.Init(r.ctl)
	return r
}

func (r *windowRig) complete(lat sim.Time) {
	if lat >= sim.Time(1)<<61 {
		r.huge++
	}
	r.req.Arrive = r.ctl.now - lat
	r.g.OnComplete(&r.req, 0)
	r.ref.samples = append(r.ref.samples, refSample{at: r.ctl.now, latency: lat, timedOut: lat > r.sla})
	r.maxLen = max(r.maxLen, len(r.ref.samples))
}

// tick ticks the guard at the clock's time and, if that ran a health
// check, compares it with the reference; it returns the first disagreement.
func (r *windowRig) tick() string {
	now := r.ctl.now
	if now < r.g.nextCheck {
		r.g.OnTick(now)
		return ""
	}
	r.ref.prune(now)
	rate, p99, ok := r.ref.health(r.cfg, r.sla)
	if len(r.ref.samples) >= r.cfg.MinSamples {
		r.judged++
	}
	wasSafe, retryDue := r.g.SafeMode(), now >= r.g.retryAt
	before := len(r.g.Transitions)
	r.g.OnTick(now)
	switch len(r.g.Transitions) - before {
	case 0:
		if !wasSafe && !ok {
			return fmt.Sprintf("check at %v: engaged guard ignored a failing window (rate %v, p99 %v)", now, rate, p99)
		}
		if wasSafe && retryDue && ok {
			return fmt.Sprintf("check at %v: safe-mode guard did not re-engage on a healthy window", now)
		}
	case 1:
		tr := r.g.Transitions[before]
		switch {
		case wasSafe:
			if tr.ToSafe || tr.RolledBack || !retryDue || !ok || tr.WindowTimeoutRate != 0 || tr.WindowP99 != 0 {
				return fmt.Sprintf("check at %v: unexpected transition %+v from safe mode (reference ok %v)", now, tr, ok)
			}
			r.reengages++
		case ok:
			return fmt.Sprintf("check at %v: transition %+v on a healthy window", now, tr)
		default:
			if math.Float64bits(tr.WindowTimeoutRate) != math.Float64bits(rate) || tr.WindowP99 != p99 {
				return fmt.Sprintf("check at %v: transition read (%v, %d ns), reference (%v, %d ns)",
					now, tr.WindowTimeoutRate, int64(tr.WindowP99), rate, int64(p99))
			}
			if tr.RolledBack {
				r.rollbacks++
			} else {
				r.fallbacks++
			}
		}
		r.ref.samples = r.ref.samples[:0]
	default:
		return fmt.Sprintf("check at %v: %d transitions in one check", now, len(r.g.Transitions)-before)
	}
	return r.compare()
}

// compare checks the guard's current window reading against the
// reference's.
func (r *windowRig) compare() string {
	if n := r.g.win.len(); n != len(r.ref.samples) {
		return fmt.Sprintf("window holds %d samples, reference %d", n, len(r.ref.samples))
	}
	gr, gp, gok := r.g.windowHealth()
	rr, rp, rok := r.ref.health(r.cfg, r.sla)
	if math.Float64bits(gr) != math.Float64bits(rr) || gp != rp || gok != rok {
		return fmt.Sprintf("window of %d reads (%v, %d ns, %v), reference (%v, %d ns, %v)",
			len(r.ref.samples), gr, int64(gp), gok, rr, int64(rp), rok)
	}
	return ""
}

func (r *windowRig) apply(op, arg byte) string {
	switch op % numOps {
	case opLatSmall:
		r.complete(sim.Time(arg))
	case opLatTie:
		r.complete(tieLatencies[arg%4])
	case opLatEdge:
		r.complete(edgeLatency(arg))
	case opLatServe:
		r.complete(serveLatency(arg))
	case opBurst:
		for i := 0; i <= int(arg)%64; i++ {
			r.complete(serveLatency(arg*31 + byte(i)*97))
		}
	case opAdvance:
		r.ctl.now += sim.Time(arg) * 100 * sim.Microsecond
	case opTick:
		r.ctl.now += sim.Time(arg%16) * sim.Millisecond
		return r.tick()
	case opGap:
		r.ctl.now += window + sim.Time(arg)*sim.Millisecond
		return r.tick()
	case opHook:
		r.hookOK = arg%2 == 1
	case opInit:
		r.inits++
		if arg%2 == 0 {
			r.ctl.now = 0
		}
		r.ctl.sla = []sim.Time{10 * sim.Millisecond, sim.Millisecond, sim.Time(1) << 40}[int(arg/2)%3]
		r.sla = r.ctl.sla
		r.g.Init(r.ctl)
		r.ref.samples = r.ref.samples[:0]
		return r.compare()
	}
	return ""
}

// runWindowScript plays script on a fresh rig: its first byte picks the
// guard configuration, the rest are (opcode, argument) pairs. It returns the
// rig and the first disagreement, naming the operation it followed.
func runWindowScript(script []byte) (r *windowRig, bad string) {
	if len(script) == 0 {
		return newWindowRig(0), ""
	}
	r = newWindowRig(script[0])
	for i := 1; i+1 < len(script); i += 2 {
		if d := r.apply(script[i], script[i+1]); d != "" {
			return r, fmt.Sprintf("after op %d (%d, %d): %s", i/2, script[i]%numOps, script[i+1], d)
		}
	}
	r.ctl.now += r.cfg.CheckEvery
	if d := r.tick(); d != "" {
		return r, "at the final check: " + d
	}
	return r, ""
}

// Two opcode mixes for the random scripts besides uniform bytes: mixedOps
// favours completions and ticks over the ops that empty the window, and
// steadyOps is serving traffic alone, so windows grow to thousands of
// samples.
var (
	mixedOps = []byte{opLatSmall, opLatTie, opLatEdge, opLatServe, opLatServe, opLatServe,
		opBurst, opBurst, opBurst, opAdvance, opAdvance, opTick, opTick, opTick, opHook, opGap, opInit}
	steadyOps = []byte{opLatServe, opLatServe, opBurst, opBurst, opBurst, opBurst, opAdvance, opTick, opTick}
)

// TestGuardWindowMatchesReference is the fence around the incremental
// health window: random scripts of completions (latency 0, ties, bucket
// edges up to 2^62 ns, bursts), clock moves, gaps longer than the window,
// rollback-hook flips and re-Inits run a guard under each rigConfigs entry,
// and at every health check its timeout rate, p99 and verdict, and each
// transition's window reading, equal bit for bit those of a copy of the
// window selected with quickSelect. The seed is drawn from the clock and
// logged, so a failure names the run that reproduces it.
func TestGuardWindowMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var judged, rollbacks, fallbacks, reengages, inits, huge, maxLen int
	for trial := 0; trial < 300; trial++ {
		script := make([]byte, 1+2*(20+rng.Intn(400)))
		rng.Read(script)
		if mix := [][]byte{nil, mixedOps, steadyOps}[trial%3]; mix != nil {
			for i := 1; i < len(script); i += 2 {
				script[i] = mix[rng.Intn(len(mix))]
			}
		}
		r, bad := runWindowScript(script)
		if bad != "" {
			t.Fatalf("seed %d trial %d: %s", seed, trial, bad)
		}
		judged += r.judged
		rollbacks += r.rollbacks
		fallbacks += r.fallbacks
		reengages += r.reengages
		inits += r.inits
		huge += r.huge
		maxLen = max(maxLen, r.maxLen)
	}
	// The scripts must have reached the cases the fence exists for.
	if judged == 0 || rollbacks == 0 || fallbacks == 0 || reengages == 0 || inits == 0 || huge == 0 || maxLen < 1000 {
		t.Fatalf("seed %d: scripts reached %d judged checks, %d rollbacks, %d fallbacks, %d re-engages, %d re-Inits, %d latencies >= 2^61, windows of %d",
			seed, judged, rollbacks, fallbacks, reengages, inits, huge, maxLen)
	}
}

// FuzzGuardWindow is TestGuardWindowMatchesReference over fuzzer-chosen
// scripts. The seed corpus under testdata/fuzz/FuzzGuardWindow holds
// scripts for latency 0 and ties, values up to 2^62 ns, bursts and gaps
// longer than the window, windows of 1 and of 31, 32 and 33 samples, ranks
// on bucket edges, and fallback, re-engage and rollback clears.
func FuzzGuardWindow(f *testing.F) {
	f.Add([]byte{1, opLatSmall, 0, opLatSmall, 0, opTick, 10, opLatTie, 2, opTick, 10})
	f.Add([]byte{0, opBurst, 63, opTick, 50, opGap, 0, opBurst, 5, opTick, 50})
	f.Fuzz(func(t *testing.T, script []byte) {
		if _, bad := runWindowScript(script); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestBucketOfMonotone checks the bucket layout around every bucket's lower
// edge: stepping a value by one moves it up by no bucket or by exactly one,
// and by one exactly at each edge; negative values share bucket 0 and the
// largest int64 lands in the last bucket.
func TestBucketOfMonotone(t *testing.T) {
	if b := bucketOf(math.MinInt64); b != 0 {
		t.Fatalf("bucketOf(MinInt64) = %d, want 0", b)
	}
	if b := bucketOf(math.MaxInt64); b != numBuckets-1 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want %d", b, numBuckets-1)
	}
	step := func(v sim.Time, edge bool) {
		d := bucketOf(v) - bucketOf(v-1)
		if d < 0 || d > 1 || edge && d != 1 {
			t.Fatalf("bucketOf(%d) - bucketOf(%d) = %d (edge %v)", v, v-1, d, edge)
		}
	}
	for v := sim.Time(1); v < 2*subBuckets; v++ {
		step(v, true)
	}
	for e := uint(subBits + 1); e < 63; e++ {
		w := sim.Time(1) << (e - subBits)
		for j := sim.Time(0); j < subBuckets; j++ {
			lo := sim.Time(1)<<e + j*w
			step(lo, true)
			step(lo+1, w == 1)
			step(lo+w-1, w == 1)
		}
	}
}

// TestGuardInitStartsFreshRun: a guard reused for a second simulation must
// start it engaged and judge only that run's completions. Run 1 ends in
// safe mode with timed-out completions stamped late on its clock; run 2
// restarts the clock at zero and serves healthy traffic.
func TestGuardInitStartsFreshRun(t *testing.T) {
	g := NewGuardedPolicy(&server.BasePolicy{}, GuardConfig{CheckEvery: 10 * sim.Millisecond, MinSamples: 4})
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 2), turbo: 2.8}
	g.Init(ctl)
	ctl.now = 5 * sim.Second
	feed(g, ctl, 8, 50*sim.Millisecond) // breach: safe mode, retry at ~6 s
	feed(g, ctl, 8, 50*sim.Millisecond) // timed-out completions in safe mode
	if !g.SafeMode() || g.Stats().Fallbacks != 1 {
		t.Fatalf("run 1 did not end in safe mode: safe %v, stats %+v", g.SafeMode(), g.Stats())
	}

	ctl.now = 0
	g.Init(ctl)
	if g.SafeMode() {
		t.Fatal("run 2 starts in safe mode")
	}
	feed(g, ctl, 8, 2*sim.Millisecond)
	rate, p99, ok := g.windowHealth()
	if g.SafeMode() || !ok || rate != 0 || p99 != 2*sim.Millisecond || g.win.len() != 8 {
		t.Fatalf("run 2 judged stale samples: safe %v, window of %d reads (%v, %v, %v)",
			g.SafeMode(), g.win.len(), rate, p99, ok)
	}
	if st := g.Stats(); st.Fallbacks != 1 || len(g.Transitions) != 1 || st.SafeTicks == 0 {
		t.Fatalf("Stats and Transitions must stay cumulative across runs: %+v, %d transitions", st, len(g.Transitions))
	}
}
