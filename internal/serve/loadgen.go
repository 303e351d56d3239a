package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
	"github.com/deeppower/deeppower/internal/workload"
)

// reqBytes is the canonical fast-path request the generator replays.
var reqBytes = []byte("GET /req HTTP/1.1\r\nHost: lg\r\n\r\n")

// GenConfig parameterizes a load-generation run.
type GenConfig struct {
	// Addr is the daemon's address.
	Addr string
	// Conns is the number of persistent connections (default 4).
	Conns int
	// Pipeline is the closed-loop in-flight window per connection
	// (default 64): each connection keeps that many requests outstanding,
	// so throughput is bounded by service rate, not round trips.
	Pipeline int
	// Duration is how long to generate load.
	Duration time.Duration
	// Trace switches to open-loop mode: request instants follow the
	// trace's rate (wrapping over its period), regardless of response
	// progress — the generator never gates on the daemon, as an open
	// system model requires. Nil runs closed-loop.
	Trace *workload.Trace
}

const (
	// maxBatch caps one open-loop write, in requests.
	maxBatch = 4096
	// drainTimeout bounds the post-deadline wait for in-flight responses.
	drainTimeout = 5 * time.Second
)

func (c *GenConfig) withDefaults() GenConfig {
	out := *c
	if out.Conns <= 0 {
		out.Conns = 4
	}
	if out.Pipeline <= 0 {
		out.Pipeline = 64
	}
	if out.Duration <= 0 {
		out.Duration = time.Second
	}
	return out
}

// GenSummary is one run's client-side view, plus the daemon's own
// telemetry fetched at the end so server-side truncation (LatencyDropped)
// and SLA accounting are visible next to the client numbers.
type GenSummary struct {
	Mode            string
	Sent            uint64
	Completed       uint64
	TransportErrors uint64
	// InFlight is sent − completed − errors after the drain window: 0 on
	// a clean run (the conservation check).
	InFlight uint64
	// Duration is the generation window (drain excluded).
	Duration    time.Duration
	AchievedRPS float64
	// SustainedRPS is the minimum whole-second completion rate over the
	// run's interior seconds — the floor the daemon held, not a burst.
	SustainedRPS float64
	// Client-side admission round-trip latency (P² digests).
	RTTMeanMS, RTTP50MS, RTTP99MS, RTTMaxMS float64
	// Errors holds the first few transport error messages.
	Errors []string
	// Daemon is the server's fresh telemetry at drain, when reachable.
	Daemon *Telemetry
}

// String renders the summary for terminal use.
func (s *GenSummary) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s-loop: sent %d completed %d errors %d in-flight %d in %.2fs\n",
		s.Mode, s.Sent, s.Completed, s.TransportErrors, s.InFlight, s.Duration.Seconds())
	fmt.Fprintf(&b, "  achieved %.0f req/s (sustained floor %.0f req/s)\n", s.AchievedRPS, s.SustainedRPS)
	fmt.Fprintf(&b, "  rtt mean %.3fms p50 %.3fms p99 %.3fms max %.3fms\n",
		s.RTTMeanMS, s.RTTP50MS, s.RTTP99MS, s.RTTMaxMS)
	if d := s.Daemon; d != nil {
		rate := 0.0
		if d.Completions > 0 {
			rate = float64(d.Timeouts) / float64(d.Completions)
		}
		fmt.Fprintf(&b, "  daemon: policy %s arrivals %d completions %d timeouts %d (%.3f%% of SLA %gms)\n",
			d.Policy, d.Arrivals, d.Completions, d.Timeouts, 100*rate, d.SLAMS)
		fmt.Fprintf(&b, "  daemon: lat mean %.3fms p99 %.3fms avg freq %.2fGHz energy %.1fJ\n",
			d.LatMeanMS, d.LatP99MS, d.AvgFreqGHz, d.EnergyJ)
		fmt.Fprintf(&b, "  daemon: latency samples dropped %d (cap %d); guard fallbacks %d rollbacks %d\n",
			d.LatencyDropped, d.LatencyCap, d.GuardFallbacks, d.GuardRollbacks)
	}
	for _, e := range s.Errors {
		fmt.Fprintf(&b, "  error: %s\n", e)
	}
	return b.String()
}

// collector aggregates client-side latencies and per-second completion
// counts. Connections add in batches (one lock per read syscall, not per
// request); the P² digests keep it O(1) memory at any request count.
type collector struct {
	mu     sync.Mutex
	mean   stats.Welford
	p50    *stats.P2Quantile
	p99    *stats.P2Quantile
	max    float64
	perSec []uint64
}

func newCollector() *collector {
	return &collector{p50: stats.NewP2Quantile(0.50), p99: stats.NewP2Quantile(0.99)}
}

// addBatch records a read batch's RTTs (seconds) completed at second sec.
func (c *collector) addBatch(rtts []float64, sec int) {
	c.mu.Lock()
	for _, r := range rtts {
		c.mean.Add(r)
		c.p50.Add(r)
		c.p99.Add(r)
		if r > c.max {
			c.max = r
		}
	}
	for sec >= len(c.perSec) {
		c.perSec = append(c.perSec, 0)
	}
	c.perSec[sec] += uint64(len(rtts))
	c.mu.Unlock()
}

// sustained returns the minimum completion rate over interior whole
// seconds (first and last are partial).
func (c *collector) sustained() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.perSec) <= 2 {
		return 0
	}
	min := c.perSec[1]
	for _, v := range c.perSec[1 : len(c.perSec)-1] {
		if v < min {
			min = v
		}
	}
	return float64(min)
}

// respScanner counts "\r\n\r\n" terminators across read boundaries.
type respScanner struct{ matched int }

func (s *respScanner) count(b []byte) int {
	n := 0
	m := s.matched
	for _, c := range b {
		want := byte('\r')
		if m == 1 || m == 3 {
			want = '\n'
		}
		if c == want {
			m++
			if m == 4 {
				n++
				m = 0
			}
		} else if c == '\r' {
			m = 1
		} else {
			m = 0
		}
	}
	s.matched = m
	return n
}

// stampQueue is a FIFO of send timestamps, one per in-flight request.
// Closed-loop connections use it single-threaded; open-loop connections
// share it between their writer and reader under the lock.
type stampQueue struct {
	mu   sync.Mutex
	buf  []int64
	head int
}

func (q *stampQueue) pushN(nanos int64, n int) {
	q.mu.Lock()
	for i := 0; i < n; i++ {
		q.buf = append(q.buf, nanos)
	}
	q.mu.Unlock()
}

// popN pops up to n stamps into dst — at most len(dst) of them, so callers
// owed more than their buffer holds loop — and returns how many.
func (q *stampQueue) popN(dst []int64, n int) int {
	q.mu.Lock()
	n = min(n, len(dst), len(q.buf)-q.head)
	copy(dst[:n], q.buf[q.head:q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.mu.Unlock()
	return n
}

func (q *stampQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// Generator drives one load-generation run.
type Generator struct {
	cfg   GenConfig
	col   *collector
	start time.Time

	sent      atomic.Uint64
	completed atomic.Uint64
	errs      atomic.Uint64
	nextID    atomic.Uint64 // per-request IDs, allocated in send batches

	errCh chan error
}

// NewGenerator builds a generator for cfg.
func NewGenerator(cfg GenConfig) *Generator {
	return &Generator{cfg: cfg.withDefaults(), col: newCollector(), errCh: make(chan error, 64)}
}

// fail records a transport error without ever blocking a worker.
func (g *Generator) fail(conn int, id uint64, err error) {
	g.errs.Add(1)
	select {
	case g.errCh <- fmt.Errorf("conn %d (around req %d): %w", conn, id, err):
	default:
	}
}

// Run executes the configured run and returns its summary. The returned
// error covers setup failures only; per-request transport errors are
// counted in the summary.
func (g *Generator) Run() (*GenSummary, error) {
	cfg := g.cfg
	conns := make([]net.Conn, cfg.Conns)
	for i := range conns {
		c, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			for _, p := range conns[:i] {
				p.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	g.start = time.Now()
	deadline := g.start.Add(cfg.Duration)

	var wg sync.WaitGroup
	if cfg.Trace != nil {
		g.runOpen(conns, deadline, &wg)
	} else {
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c net.Conn) {
				defer wg.Done()
				g.closedWorker(i, c, deadline)
			}(i, c)
		}
	}
	wg.Wait()
	elapsed := time.Since(g.start)
	for _, c := range conns {
		c.Close()
	}

	mode := "closed"
	if cfg.Trace != nil {
		mode = "open"
	}
	sum := &GenSummary{
		Mode:            mode,
		Sent:            g.sent.Load(),
		Completed:       g.completed.Load(),
		TransportErrors: g.errs.Load(),
		Duration:        cfg.Duration,
		SustainedRPS:    g.col.sustained(),
		RTTMeanMS:       g.col.mean.Mean() * 1e3,
		RTTP50MS:        g.col.p50.Value() * 1e3,
		RTTP99MS:        g.col.p99.Value() * 1e3,
		RTTMaxMS:        g.col.max * 1e3,
	}
	if sum.Sent > sum.Completed+sum.TransportErrors {
		sum.InFlight = sum.Sent - sum.Completed - sum.TransportErrors
	}
	// Rate over the generation window; the drain tail completes requests
	// sent before the deadline, so they belong to the window.
	window := cfg.Duration
	if elapsed < window {
		window = elapsed
	}
	sum.AchievedRPS = float64(sum.Completed) / window.Seconds()
	for {
		select {
		case err := <-g.errCh:
			sum.Errors = append(sum.Errors, err.Error())
			continue
		default:
		}
		break
	}
	if t, err := FetchStats(cfg.Addr); err == nil {
		sum.Daemon = t
	}
	return sum, nil
}

// closedWorker keeps cfg.Pipeline requests in flight on one connection:
// prime a full window, then send one request per received response (in
// read-batch granularity, so syscalls amortize).
func (g *Generator) closedWorker(conn int, c net.Conn, deadline time.Time) {
	cfg := g.cfg
	burst := bytes.Repeat(reqBytes, cfg.Pipeline)
	in := make([]byte, 256<<10)
	rtts := make([]float64, 0, cfg.Pipeline*2)
	popped := make([]int64, cfg.Pipeline*2)
	var stamps stampQueue
	var scan respScanner

	send := func(n int) bool {
		if n > cfg.Pipeline {
			n = cfg.Pipeline
		}
		id := g.nextID.Add(uint64(n)) - uint64(n)
		// Stamp before the write: on loopback the response can race the
		// Write call's return, and a response must never find its stamp
		// missing.
		now := time.Since(g.start)
		stamps.pushN(int64(now), n)
		if _, err := c.Write(burst[:n*len(reqBytes)]); err != nil {
			g.fail(conn, id, err)
			return false
		}
		g.sent.Add(uint64(n))
		return true
	}

	if !send(cfg.Pipeline) {
		return
	}
	sending := true
	for {
		if sending && time.Now().After(deadline) {
			sending = false
			c.SetReadDeadline(time.Now().Add(drainTimeout))
		}
		n, err := c.Read(in)
		if n > 0 {
			k := scan.count(in[:n])
			if k > 0 {
				now := time.Since(g.start)
				got := stamps.popN(popped, k)
				rtts = rtts[:0]
				for i := 0; i < got; i++ {
					rtts = append(rtts, float64(int64(now)-popped[i])/1e9)
				}
				g.completed.Add(uint64(got))
				g.col.addBatch(rtts, int(now/time.Second))
				if sending && !send(got) {
					return
				}
			}
		}
		if err != nil {
			if sending || stamps.len() > 0 {
				g.fail(conn, g.nextID.Load(), err)
			}
			return
		}
		if !sending && stamps.len() == 0 {
			return
		}
	}
}

// runOpen replays the trace open-loop: a central pacer integrates the rate
// curve and hands each millisecond's due count to per-connection writers;
// readers consume responses independently so a slow server never gates the
// arrival process.
func (g *Generator) runOpen(conns []net.Conn, deadline time.Time, wg *sync.WaitGroup) {
	type connState struct {
		c      net.Conn
		due    chan int
		stamps stampQueue
	}
	states := make([]*connState, len(conns))
	for i, c := range conns {
		st := &connState{c: c, due: make(chan int, 64)}
		states[i] = st
		wg.Add(2)
		// Writer: one write syscall per due batch.
		go func(i int, st *connState) {
			defer wg.Done()
			buf := make([]byte, 0, maxBatch*len(reqBytes))
			dead := false
			for n := range st.due {
				if dead {
					continue // keep draining so the pacer never blocks
				}
				for n > 0 {
					k := n
					if k > maxBatch {
						k = maxBatch
					}
					buf = buf[:0]
					for j := 0; j < k; j++ {
						buf = append(buf, reqBytes...)
					}
					id := g.nextID.Add(uint64(k)) - uint64(k)
					// Stamp before the write (see closedWorker).
					st.stamps.pushN(int64(time.Since(g.start)), k)
					if _, err := st.c.Write(buf); err != nil {
						g.fail(i, id, err)
						dead = true
						break
					}
					g.sent.Add(uint64(k))
					n -= k
				}
			}
			if tc, ok := st.c.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}(i, st)
		// Reader: count responses, match stamps, record RTTs.
		go func(i int, st *connState) {
			defer wg.Done()
			in := make([]byte, 256<<10)
			popped := make([]int64, 8192)
			rtts := make([]float64, 0, 8192)
			var scan respScanner
			st.c.SetReadDeadline(deadline.Add(drainTimeout))
			for {
				n, err := st.c.Read(in)
				if n > 0 {
					k := scan.count(in[:n])
					for k > 0 {
						got := st.stamps.popN(popped, k)
						if got == 0 {
							break
						}
						now := time.Since(g.start)
						rtts = rtts[:0]
						for j := 0; j < got; j++ {
							rtts = append(rtts, float64(int64(now)-popped[j])/1e9)
						}
						g.completed.Add(uint64(got))
						g.col.addBatch(rtts, int(now/time.Second))
						k -= got
					}
				}
				if err != nil {
					if err != io.EOF && st.stamps.len() > 0 {
						g.fail(i, g.nextID.Load(), err)
					}
					return
				}
			}
		}(i, st)
	}

	// Pacer: integrate the (wrapping) rate trace; surplus demand carries
	// forward, so a stalled tick is made up, never dropped.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, st := range states {
				close(st.due)
			}
		}()
		period := time.Millisecond
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		var acc float64
		var dispatched uint64
		last := time.Duration(0)
		rr := 0
		for {
			now := <-ticker.C
			if now.After(deadline) {
				return
			}
			elapsed := now.Sub(g.start)
			t := sim.Time(elapsed)
			if g.cfg.Trace.Period > 0 {
				t = t % g.cfg.Trace.Period
			}
			acc += g.cfg.Trace.RateAt(t) * (elapsed - last).Seconds()
			last = elapsed
			due := int(acc - float64(dispatched))
			for due > 0 {
				k := due
				if k > maxBatch {
					k = maxBatch
				}
				states[rr%len(states)].due <- k
				rr++
				dispatched += uint64(k)
				due -= k
			}
		}
	}()
}

// FetchStats retrieves the daemon's fresh telemetry over a short-lived
// connection.
func FetchStats(addr string) (*Telemetry, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("GET /stats?fresh=1 HTTP/1.1\r\nHost: lg\r\nConnection: close\r\n\r\n")); err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(c)
	if err != nil {
		return nil, err
	}
	i := bytes.Index(raw, crlf2)
	if i < 0 {
		return nil, fmt.Errorf("serve: malformed stats response")
	}
	var t Telemetry
	if err := json.Unmarshal(bytes.TrimSpace(raw[i+4:]), &t); err != nil {
		return nil, err
	}
	return &t, nil
}
