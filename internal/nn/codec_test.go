package nn

import (
	"errors"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/sim"
)

func netsEqual(a, b Network) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].In != pb[i].In || pa[i].Out != pb[i].Out || pa[i].Act != pb[i].Act {
			return false
		}
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				return false
			}
		}
		for j := range pa[i].B {
			if pa[i].B[j] != pb[i].B[j] {
				return false
			}
		}
	}
	return true
}

func TestNetworkCodecRoundTrip(t *testing.T) {
	rng := sim.NewRNG(11)
	nets := []Network{
		NewMLP([]int{4, 16, 3}, ReLU, Identity, rng),
		NewMLP([]int{2, 2}, ReLU, Tanh, rng),
		NewPaperActor(8, rng),
		NewTwoHead(5, nil, []int{4}, 3, Sigmoid, rng),
	}
	for _, n := range nets {
		var e ckpt.Enc
		EncodeNetwork(&e, n)
		dec := ckpt.NewDec(e.Bytes())
		got, err := DecodeNetwork(dec)
		if err != nil {
			t.Fatalf("decode %T: %v", n, err)
		}
		if err := dec.Finish(); err != nil {
			t.Fatalf("trailing bytes after %T: %v", n, err)
		}
		if !netsEqual(n, got) {
			t.Fatalf("round trip of %T altered weights", n)
		}
		// The decoded network must be functional, not just structurally equal.
		x := make([]float64, n.InDim())
		for i := range x {
			x[i] = 0.1 * float64(i+1)
		}
		want := append([]float64(nil), n.Forward(x)...)
		have := got.Forward(x)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%T output %d: %v != %v", n, i, have[i], want[i])
			}
		}
	}
}

func TestDecodeNetworkRejectsGarbage(t *testing.T) {
	rng := sim.NewRNG(3)
	base := func() []byte {
		var e ckpt.Enc
		EncodeNetwork(&e, NewMLP([]int{3, 4, 2}, ReLU, Identity, rng))
		return append([]byte(nil), e.Bytes()...)
	}

	t.Run("truncated", func(t *testing.T) {
		b := base()
		if _, err := DecodeNetwork(ckpt.NewDec(b[:len(b)/2])); !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown topology tag", func(t *testing.T) {
		b := base()
		b[0] = 99
		if _, err := DecodeNetwork(ckpt.NewDec(b)); !errors.Is(err, ckpt.ErrMalformed) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-finite weight", func(t *testing.T) {
		n := NewMLP([]int{2, 2}, ReLU, Identity, rng)
		n.Layers[0].W[1] = math.NaN()
		var e ckpt.Enc
		EncodeNetwork(&e, n)
		if _, err := DecodeNetwork(ckpt.NewDec(e.Bytes())); !errors.Is(err, ckpt.ErrNonFinite) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("broken chain", func(t *testing.T) {
		n := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng)
		var e ckpt.Enc
		e.U8(1) // netMLP
		e.Int(2)
		encodeDense(&e, n.Layers[0]) // 2→3
		bad := NewDense(5, 1, Identity, rng)
		encodeDense(&e, bad) // 5→1 cannot chain from 3
		if _, err := DecodeNetwork(ckpt.NewDec(e.Bytes())); !errors.Is(err, ckpt.ErrMalformed) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := DecodeNetwork(ckpt.NewDec(nil)); err == nil {
			t.Fatal("accepted empty input")
		}
	})
}
