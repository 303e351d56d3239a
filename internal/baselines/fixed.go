// Package baselines implements the power-management comparators of the
// paper's evaluation: the no-management baseline (maximum computing
// ability), a fixed-frequency governor, and the two state-of-the-art
// request-level methods, ReTail (HPCA'22) and Gemini (MICRO'20).
package baselines

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// MaxFreq is the paper's "Baseline": no power management, every core at the
// maximum (turbo) frequency for the whole run, exploiting the processor's
// full computing ability and its full power budget.
type MaxFreq struct {
	server.BasePolicy
}

// NewMaxFreq returns the no-power-management baseline.
func NewMaxFreq() *MaxFreq { return &MaxFreq{} }

// Name implements server.Policy.
func (p *MaxFreq) Name() string { return "baseline" }

// Init implements server.Policy.
func (p *MaxFreq) Init(c server.Control) {
	p.BasePolicy.Init(c)
	for i := 0; i < c.NumCores(); i++ {
		c.SetTurbo(i)
	}
}

// FixedFreq pins every core at one frequency for the whole run. It is the
// configuration the paper's §5.5 overhead experiment uses and a useful
// ablation point.
type FixedFreq struct {
	server.BasePolicy
	freq cpu.Freq
}

// NewFixedFreq returns a governor pinned at f.
func NewFixedFreq(f cpu.Freq) *FixedFreq { return &FixedFreq{freq: f} }

// Name implements server.Policy.
func (p *FixedFreq) Name() string { return fmt.Sprintf("fixed-%.2gGHz", float64(p.freq)) }

// Init implements server.Policy.
func (p *FixedFreq) Init(c server.Control) {
	p.BasePolicy.Init(c)
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, p.freq)
	}
}

// OnTick implements server.Policy: re-asserts the pin so a fixed governor
// stays fixed even if another component touched a core.
func (p *FixedFreq) OnTick(now sim.Time) {
	for i := 0; i < p.Ctl.NumCores(); i++ {
		if p.Ctl.Freq(i) != p.freq {
			p.Ctl.SetFreq(i, p.freq)
		}
	}
}

// ParseMethod builds the policy a parameterized method string names:
// "fixed:<ghz>" pins every core at a finite, positive ghz, and
// "controller:<base>,<scale>" runs the thread controller with parameters in
// [0,1]. ok is false when method is neither form, for the caller to resolve.
func ParseMethod(method string) (pol server.Policy, ok bool, err error) {
	name, arg, _ := strings.Cut(method, ":")
	switch name {
	case "fixed":
		ghz, err := strconv.ParseFloat(arg, 64)
		if err != nil || math.IsInf(ghz, 0) || !(ghz > 0) {
			return nil, true, fmt.Errorf("baselines: fixed method needs a finite positive frequency in GHz, got %q", arg)
		}
		return NewFixedFreq(cpu.Freq(ghz)), true, nil
	case "controller":
		bs, ss, found := strings.Cut(arg, ",")
		b, err1 := strconv.ParseFloat(bs, 64)
		s, err2 := strconv.ParseFloat(ss, 64)
		if !found || err1 != nil || err2 != nil {
			return nil, true, fmt.Errorf("baselines: controller method needs <base>,<scale>, got %q", arg)
		}
		p := control.Params{BaseFreq: b, ScalingCoef: s}
		if err := p.Validate(); err != nil {
			return nil, true, err
		}
		return control.NewThreadController(p), true, nil
	}
	return nil, false, nil
}
