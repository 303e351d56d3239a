package serve

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// startDaemon builds and starts a daemon, cleaning it up with the test.
func startDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop() })
	return d
}

// drain polls until every accepted request has been injected and executed.
func drain(t *testing.T, d *Daemon) Telemetry {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tel := d.Telemetry()
		if tel.Arrivals == tel.Accepted && tel.QueueLen == 0 && tel.BusyCores == 0 {
			return tel
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timeout: %+v", tel)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoopbackConservation is the serving mode's books-balance check: a
// short closed-loop run against an in-process daemon, then, at drain,
// sent = completed + errors client-side and accepted = arrivals =
// completions server-side with nothing queued or in service.
func TestLoopbackConservation(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Method: "controller:0.4,0.5", Seed: 7})
	sum, err := NewGenerator(GenConfig{
		Addr:     d.Addr(),
		Conns:    2,
		Pipeline: 16,
		Duration: 300 * time.Millisecond,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.TransportErrors != 0 {
		t.Fatalf("transport errors: %d (%v)", sum.TransportErrors, sum.Errors)
	}
	if sum.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if sum.Sent != sum.Completed {
		t.Errorf("sent %d != completed %d", sum.Sent, sum.Completed)
	}
	if sum.InFlight != 0 {
		t.Errorf("in-flight after drain: %d", sum.InFlight)
	}

	tel := drain(t, d)
	if tel.Accepted != sum.Sent {
		t.Errorf("daemon accepted %d != client sent %d", tel.Accepted, sum.Sent)
	}
	if tel.InjectErrors != 0 {
		t.Errorf("inject errors: %d", tel.InjectErrors)
	}
	if tel.Arrivals != tel.Accepted {
		t.Errorf("backend arrivals %d != accepted %d", tel.Arrivals, tel.Accepted)
	}
	if got := tel.Completions + uint64(tel.QueueLen) + uint64(tel.BusyCores); got != tel.Arrivals {
		t.Errorf("completions+queued+busy = %d != arrivals %d", got, tel.Arrivals)
	}

	// Stopping settles the backend at its current position; the final
	// result must agree with the drained telemetry.
	res := d.Stop()
	if res.Counters.Arrivals != tel.Arrivals || res.Counters.Completions != tel.Completions {
		t.Errorf("final result %d/%d != drained telemetry %d/%d",
			res.Counters.Arrivals, res.Counters.Completions, tel.Arrivals, tel.Completions)
	}
}

// TestOpenLoopReplay drives a flat trace open-loop and checks the pacer
// delivered approximately the configured rate and the backend held it.
func TestOpenLoopReplay(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Method: "maxfreq", Seed: 3})
	rate := 2000.0
	sum, err := NewGenerator(GenConfig{
		Addr:     d.Addr(),
		Conns:    2,
		Duration: 500 * time.Millisecond,
		Trace:    workload.Constant(rate, sim.Second),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.TransportErrors != 0 {
		t.Fatalf("transport errors: %d (%v)", sum.TransportErrors, sum.Errors)
	}
	want := rate * 0.5
	if float64(sum.Sent) < want*0.7 || float64(sum.Sent) > want*1.3 {
		t.Errorf("open-loop sent %d, want ~%.0f", sum.Sent, want)
	}
	tel := drain(t, d)
	if tel.Arrivals != tel.Accepted || tel.Accepted != sum.Sent {
		t.Errorf("accepted/arrivals %d/%d vs sent %d", tel.Accepted, tel.Arrivals, sum.Sent)
	}
	if tel.TimeoutRate > 0.01 {
		t.Errorf("timeout rate %.4f at light load", tel.TimeoutRate)
	}
}

// rawRequest issues one HTTP request on a fresh connection and returns the
// status line and body.
func rawRequest(t *testing.T, addr, method, target string) (status, body string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	req := method + " " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(raw), "\r\n")
	if !ok {
		t.Fatalf("malformed response %q", raw)
	}
	_, b, _ := strings.Cut(rest, "\r\n\r\n")
	return head, b
}

func TestControlEndpoints(t *testing.T) {
	d := startDaemon(t, DaemonConfig{Method: "fixed:1.8", Seed: 1})
	if st, body := rawRequest(t, d.Addr(), "GET", "/healthz"); !strings.Contains(st, "200") || body != "ok\n" {
		t.Errorf("healthz: %q %q", st, body)
	}
	if st, body := rawRequest(t, d.Addr(), "GET", "/stats?fresh=1"); !strings.Contains(st, "200") || !strings.Contains(body, "\"accepted\"") {
		t.Errorf("stats: %q %q", st, body)
	}
	if st, body := rawRequest(t, d.Addr(), "GET", "/policy"); !strings.Contains(st, "200") || !strings.Contains(body, "fixed") {
		t.Errorf("policy: %q %q", st, body)
	}
	if st, _ := rawRequest(t, d.Addr(), "GET", "/nope"); !strings.Contains(st, "404") {
		t.Errorf("unknown path: %q", st)
	}
	// Lifecycle endpoints refuse when the policy is not registry-backed.
	if st, _ := rawRequest(t, d.Addr(), "POST", "/policy/rollback"); !strings.Contains(st, "409") {
		t.Errorf("rollback without registry: %q", st)
	}
	tel := d.Telemetry()
	if tel.LatencyCap == 0 {
		t.Error("telemetry missing latency cap")
	}
}

// trainedPolicyBytes trains a throwaway DeepPower policy on the serving
// profile just long enough to produce a loadable checkpoint.
func trainedPolicyBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	dp, err := agent.New(agent.Config{
		Seed: seed, Train: true,
		LongTime: 250 * sim.Millisecond, UpdatesPerStep: 2, WarmupSteps: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = agent.Train(dp, agent.TrainConfig{
		Episodes:   1,
		EpisodeLen: 2 * sim.Second,
		Server:     server.Config{App: DefaultProfile(), Seed: seed, DiscardLatencies: true},
		Trace:      workload.Constant(2000, sim.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dp.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg, err := ckpt.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	pol := trainedPolicyBytes(t, 11)
	v1, err := reg.Put(pol)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Put(pol)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("unexpected registry versions %d, %d", v1, v2)
	}
	if err := reg.Promote(v1); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, DaemonConfig{Method: "registry", RegistryDir: dir, Seed: 5})
	if st, body := rawRequest(t, d.Addr(), "GET", "/policy"); !strings.Contains(st, "200") || !strings.Contains(body, "\"version\":1") {
		t.Fatalf("initial policy: %q %q", st, body)
	}
	// Hot-swap to v2 while serving.
	if st, body := rawRequest(t, d.Addr(), "POST", "/policy/promote?version=2"); !strings.Contains(st, "200") || !strings.Contains(body, "\"version\":2") {
		t.Fatalf("promote: %q %q", st, body)
	}
	// Roll back to v1.
	if st, body := rawRequest(t, d.Addr(), "POST", "/policy/rollback"); !strings.Contains(st, "200") || !strings.Contains(body, "\"version\":1") {
		t.Fatalf("rollback: %q %q", st, body)
	}
	// At the bottom of the history, rollback must fail without breaking
	// the serving policy.
	if st, _ := rawRequest(t, d.Addr(), "POST", "/policy/rollback"); !strings.Contains(st, "409") {
		t.Errorf("rollback at bottom should 409")
	}
	// The daemon still serves requests afterward.
	sum, err := NewGenerator(GenConfig{Addr: d.Addr(), Conns: 1, Pipeline: 4, Duration: 100 * time.Millisecond}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.TransportErrors != 0 || sum.Completed == 0 {
		t.Errorf("post-lifecycle serving broken: %+v", sum)
	}
}

func TestDaemonRejectsBadConfig(t *testing.T) {
	for _, method := range []string{"registry", "bogus", "fixed:x", "fixed:0", "fixed:NaN", "controller:1", "controller:2,9"} {
		if _, err := NewDaemon(DaemonConfig{Method: method}); err == nil {
			t.Errorf("method %q accepted", method)
		}
	}
}

func TestRespScanner(t *testing.T) {
	var s respScanner
	whole := bytes.Repeat(respAdmit, 5)
	if got := s.count(whole); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	// Terminator straddling read boundaries.
	var s2 respScanner
	n := 0
	for _, b := range whole {
		n += s2.count([]byte{b})
	}
	if n != 5 {
		t.Errorf("bytewise count = %d, want 5", n)
	}
}

// TestStampQueuePopClampsToBuffer pins the open-loop reader's contract: one
// read can owe more responses than the reader's stamp buffer holds (a stall
// of over 100 ms at the 80 k req/s peak), and popN must then hand them out a
// buffer at a time, in order, instead of slicing dst past its capacity.
func TestStampQueuePopClampsToBuffer(t *testing.T) {
	var q stampQueue
	for i := int64(0); i < 10000; i++ {
		q.pushN(i, 1)
	}
	dst := make([]int64, 8192)
	next := int64(0)
	for _, want := range []int{8192, 1808, 0} {
		got := q.popN(dst, 10000)
		if got != want {
			t.Fatalf("popN = %d, want %d", got, want)
		}
		for _, v := range dst[:got] {
			if v != next {
				t.Fatalf("stamp %d popped where %d was due", v, next)
			}
			next++
		}
	}
	if q.len() != 0 {
		t.Errorf("%d stamps left", q.len())
	}
}
