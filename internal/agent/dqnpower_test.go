package agent

import (
	"testing"

	"github.com/deeppower/deeppower/internal/control"
)

func TestDQNPowerParamsLattice(t *testing.T) {
	dq, err := NewDQNPower(DQNPowerConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corners and center of the 5×5 lattice.
	cases := []struct {
		action int
		want   control.Params
	}{
		{0, control.Params{BaseFreq: 0, ScalingCoef: 0}},
		{4, control.Params{BaseFreq: 0, ScalingCoef: 1}},
		{20, control.Params{BaseFreq: 1, ScalingCoef: 0}},
		{24, control.Params{BaseFreq: 1, ScalingCoef: 1}},
		{12, control.Params{BaseFreq: 0.5, ScalingCoef: 0.5}},
	}
	for _, c := range cases {
		if got := dq.codec.params([]float64{float64(c.action)}); got != c.want {
			t.Errorf("paramsOf(%d) = %+v, want %+v", c.action, got, c.want)
		}
	}
	// Every action maps into [0,1]².
	for a := 0; a < 25; a++ {
		if p := dq.codec.params([]float64{float64(a)}); p.Validate() != nil {
			t.Errorf("action %d → invalid params %+v", a, p)
		}
	}
}

func TestDDQNPowerName(t *testing.T) {
	dq, err := NewDQNPower(DQNPowerConfig{double: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dq.Name() != "ddqn-power" {
		t.Errorf("name = %q", dq.Name())
	}
}
