package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
)

// DaemonConfig parameterizes a serving daemon.
type DaemonConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Method selects the serving policy: "maxfreq", "fixed:<ghz>",
	// "controller:<base>,<scale>", or "registry" (load the checkpoint
	// registry's promoted policy into a DeepPower agent).
	Method string
	// RegistryDir is the checkpoint registry directory; required for the
	// registry method, optional otherwise.
	RegistryDir string
	// Profile is the application backing the virtual cores (DefaultProfile
	// when nil).
	Profile *app.Profile
	// Horizon bounds the serving run (default 1h). The simulated backend
	// needs a finite virtual end time.
	Horizon time.Duration
	// BridgePeriod is the wall-to-virtual sync cadence (default 1ms); it
	// bounds how far virtual time may trail the wall clock.
	BridgePeriod time.Duration
	// SnapshotEvery is the telemetry publish cadence (default 100ms).
	SnapshotEvery time.Duration
	// Unguarded disables the fault.GuardedPolicy wrapper (benchmarking the
	// raw policy only; production serving always guards).
	Unguarded bool
	// GuardConfig tunes the guard (defaults as in internal/fault).
	GuardConfig fault.GuardConfig
	// LatencyCap bounds retained per-request latency samples in the
	// backend (default 65536); completions beyond it are counted in
	// LatencyDropped and surfaced in telemetry.
	LatencyCap int
	// Seed drives the backend's service-time randomness.
	Seed int64
}

func (c *DaemonConfig) withDefaults() DaemonConfig {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.Method == "" {
		out.Method = "maxfreq"
	}
	if out.Profile == nil {
		out.Profile = DefaultProfile()
	}
	if out.Horizon <= 0 {
		out.Horizon = time.Hour
	}
	if out.LatencyCap == 0 {
		out.LatencyCap = 65536
	}
	return out
}

// Daemon is the live serving process: a listener feeding the admission hot
// path, a bridge locking the simulated backend to the wall clock, and the
// policy lifecycle (registry load, hot promote, rollback) executed on the
// bridge goroutine.
type Daemon struct {
	cfg    DaemonConfig
	wire   WireCounters
	bridge *Bridge
	ln     net.Listener

	reg        *ckpt.Registry
	dp         *agent.DeepPower // non-nil only for the registry method
	guard      *fault.GuardedPolicy
	policyName string
	version    int // registry version serving, -1 when not registry-backed

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewDaemon assembles a daemon: policy by method, guard wrap, simulated
// actuator, bridge. Call Start to begin serving.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	full := cfg.withDefaults()
	d := &Daemon{cfg: full, conns: make(map[net.Conn]struct{}), version: -1}

	if full.RegistryDir != "" {
		reg, err := ckpt.OpenRegistry(full.RegistryDir)
		if err != nil {
			return nil, err
		}
		d.reg = reg
	}
	inner, err := d.buildPolicy(full.Method)
	if err != nil {
		return nil, err
	}
	pol := inner
	if !full.Unguarded {
		gcfg := full.GuardConfig
		if d.dp != nil && d.reg != nil && gcfg.Rollback == nil {
			gcfg.Rollback = fault.RegistryRollback(d.reg, d.dp)
		}
		d.guard = fault.NewGuardedPolicy(inner, gcfg)
		pol = d.guard
	}
	d.policyName = pol.Name()

	act, err := NewSimActuator(server.Config{
		App:        full.Profile,
		Seed:       full.Seed,
		LatencyCap: full.LatencyCap,
	}, pol)
	if err != nil {
		return nil, err
	}
	d.bridge = newBridge(act, &d.wire, full.BridgePeriod, full.SnapshotEvery)
	d.bridge.meta = d.fillMeta
	return d, nil
}

// buildPolicy constructs the configured method's policy. For the registry
// method it also records the agent and serving version for the lifecycle
// endpoints.
func (d *Daemon) buildPolicy(method string) (server.Policy, error) {
	if pol, ok, err := baselines.ParseMethod(method); ok {
		return pol, err
	}
	switch method {
	case "maxfreq":
		return baselines.NewMaxFreq(), nil
	case "registry":
		if d.reg == nil {
			return nil, fmt.Errorf("serve: registry method needs RegistryDir")
		}
		dp, err := agent.New(agent.Config{Seed: d.cfg.Seed})
		if err != nil {
			return nil, err
		}
		v, err := d.loadCurrent(dp)
		if err != nil {
			return nil, err
		}
		d.dp = dp
		d.version = v
		return dp, nil
	}
	return nil, fmt.Errorf("serve: unknown method %q", method)
}

// loadCurrent loads the registry's promoted policy into dp.
func (d *Daemon) loadCurrent(dp *agent.DeepPower) (int, error) {
	v, kind, payload, err := d.reg.GetCurrent()
	if err != nil {
		return 0, err
	}
	if err := dp.LoadPolicy(bytes.NewReader(ckpt.Seal(kind, payload))); err != nil {
		return 0, err
	}
	return v, nil
}

// Start binds the listener and launches the bridge and accept loops.
func (d *Daemon) Start() error {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return err
	}
	if err := d.bridge.Start(d.cfg.Horizon); err != nil {
		ln.Close()
		return err
	}
	d.ln = ln
	d.wg.Add(1)
	go d.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Stop closes the listener and every connection, drains the bridge, and
// returns the backend's settled result.
func (d *Daemon) Stop() *server.Result {
	d.mu.Lock()
	d.closed = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	if d.ln != nil {
		d.ln.Close()
	}
	d.wg.Wait()
	return d.bridge.Stop()
}

// Telemetry synchronously builds a fresh telemetry record.
func (d *Daemon) Telemetry() Telemetry { return d.bridge.Telemetry() }

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	id := 0
	for {
		c, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			c.Close()
			return
		}
		d.conns[c] = struct{}{}
		d.mu.Unlock()
		id++
		shard := id & (nShards - 1)
		d.wire.ConnsOpened.Add(shard, 1)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveConn(c, shard)
			d.mu.Lock()
			delete(d.conns, c)
			d.mu.Unlock()
			d.wire.ConnsClosed.Add(shard, 1)
		}()
	}
}

// fillMeta completes a telemetry record with policy identity and guard
// counters. Runs on the bridge goroutine.
func (d *Daemon) fillMeta(t *Telemetry) {
	t.Policy = d.policyName
	t.PolicyVersion = d.version
	t.LatencyCap = d.cfg.LatencyCap
	t.SLAMS = d.cfg.Profile.SLA.Milliseconds()
	if d.guard != nil {
		s := d.guard.Stats()
		t.GuardSafeMode = d.guard.SafeMode()
		t.GuardFallbacks = s.Fallbacks
		t.GuardRollbacks = s.Rollbacks
		t.GuardReengages = s.Reengages
		t.GuardInvalid = s.InvalidActions
	}
}

// route dispatches a control request. An empty status means 404.
func (d *Daemon) route(method, path, query string) (status, ctype string, body []byte) {
	switch {
	case method == "GET" && path == "/healthz":
		return "200 OK", "text/plain", []byte("ok\n")
	case method == "GET" && path == "/stats":
		if strings.Contains(query, "fresh=1") {
			t := d.Telemetry()
			b, err := json.Marshal(&t)
			if err != nil {
				return "500 Internal Server Error", "text/plain", []byte(err.Error() + "\n")
			}
			return "200 OK", "application/json", append(b, '\n')
		}
		return "200 OK", "application/json", d.bridge.stats.Bytes()
	case method == "GET" && path == "/policy":
		return d.policyInfo()
	case method == "POST" && path == "/policy/reload":
		return d.lifecycle(func() error {
			v, err := d.loadCurrent(d.dp)
			if err == nil {
				d.version = v
			}
			return err
		})
	case method == "POST" && path == "/policy/promote":
		vs, ok := strings.CutPrefix(query, "version=")
		v, err := strconv.Atoi(vs)
		if !ok || err != nil {
			return "400 Bad Request", "text/plain", []byte("need ?version=N\n")
		}
		return d.lifecycle(func() error {
			if err := d.reg.Promote(v); err != nil {
				return err
			}
			nv, err := d.loadCurrent(d.dp)
			if err == nil {
				d.version = nv
			}
			return err
		})
	case method == "POST" && path == "/policy/rollback":
		return d.lifecycle(func() error {
			if _, err := d.reg.Rollback(); err != nil {
				return err
			}
			v, err := d.loadCurrent(d.dp)
			if err == nil {
				d.version = v
			}
			return err
		})
	}
	return "", "", nil
}

// lifecycle runs a registry-backed policy operation on the bridge
// goroutine, where it is ordered against policy callbacks.
func (d *Daemon) lifecycle(fn func() error) (status, ctype string, body []byte) {
	if d.dp == nil || d.reg == nil {
		return "409 Conflict", "text/plain", []byte("policy is not registry-backed\n")
	}
	var resp []byte
	err := d.bridge.Do(func() error {
		if err := fn(); err != nil {
			return err
		}
		resp = []byte(fmt.Sprintf("{\"policy\":%q,\"version\":%d}\n", d.policyName, d.version))
		return nil
	})
	if err != nil {
		return "409 Conflict", "text/plain", []byte(err.Error() + "\n")
	}
	return "200 OK", "application/json", resp
}

func (d *Daemon) policyInfo() (status, ctype string, body []byte) {
	info := struct {
		Policy  string `json:"policy"`
		Version int    `json:"version"`
		History []int  `json:"history,omitempty"`
	}{}
	d.bridge.Do(func() error {
		info.Policy = d.policyName
		info.Version = d.version
		if d.reg != nil {
			info.History = d.reg.History()
		}
		return nil
	})
	b, _ := json.Marshal(&info)
	return "200 OK", "application/json", append(b, '\n')
}
