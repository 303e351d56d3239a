package nn

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/ckpt"
)

// Network topology tags in the binary checkpoint format.
const (
	netMLP     uint8 = 1
	netTwoHead uint8 = 2
)

// validActivation reports whether a serialized activation code is one the
// library defines — an unknown code would silently evaluate as identity.
func validActivation(a Activation) bool {
	return a >= Identity && a <= Tanh
}

// encodeDense appends one layer: shape, activation, weights, biases.
func encodeDense(e *ckpt.Enc, d *Dense) {
	e.Int(d.In)
	e.Int(d.Out)
	e.U8(uint8(d.Act))
	e.F64s(d.W)
	e.F64s(d.B)
}

// decodeDense reads one layer, validating shape, activation code, weight
// array lengths, and finiteness. wantIn, when positive, pins the input width
// so layer chains cannot be mis-wired by a corrupt shape header.
func decodeDense(dec *ckpt.Dec, wantIn int) (*Dense, error) {
	in := dec.Int()
	out := dec.Int()
	act := Activation(dec.U8())
	w := dec.FiniteF64s()
	b := dec.FiniteF64s()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("%w: layer shape %d→%d", ckpt.ErrMalformed, in, out)
	}
	if wantIn > 0 && in != wantIn {
		return nil, fmt.Errorf("%w: layer input %d does not chain from previous output %d",
			ckpt.ErrMalformed, in, wantIn)
	}
	if !validActivation(act) {
		return nil, fmt.Errorf("%w: unknown activation code %d", ckpt.ErrMalformed, uint8(act))
	}
	if len(w) != in*out || len(b) != out {
		return nil, fmt.Errorf("%w: layer %d→%d carries %d weights and %d biases",
			ckpt.ErrMalformed, in, out, len(w), len(b))
	}
	return &Dense{
		In: in, Out: out, Act: act,
		W: w, B: b,
		GW: make([]float64, len(w)),
		GB: make([]float64, len(b)),
		x:  make([]float64, in),
		y:  make([]float64, out),
		dx: make([]float64, in),
	}, nil
}

// EncodeNetwork appends a network (MLP or TwoHead) to the encoder in the
// binary checkpoint format.
func EncodeNetwork(e *ckpt.Enc, n Network) {
	switch t := n.(type) {
	case *MLP:
		e.U8(netMLP)
		e.Int(len(t.Layers))
		for _, l := range t.Layers {
			encodeDense(e, l)
		}
	case *TwoHead:
		e.U8(netTwoHead)
		e.Int(len(t.Trunk))
		for _, l := range t.Trunk {
			encodeDense(e, l)
		}
		e.Int(len(t.Heads))
		for _, stack := range t.Heads {
			e.Int(len(stack))
			for _, l := range stack {
				encodeDense(e, l)
			}
		}
	default:
		panic(fmt.Sprintf("nn: EncodeNetwork of unknown topology %T", n))
	}
}

// maxLayers bounds declared layer counts so a corrupt header cannot drive a
// decode loop into absurd allocation; real networks here have ≤ 8 layers.
const maxLayers = 1024

// DecodeNetwork reads a network written by EncodeNetwork, validating
// topology, shape chaining, activation codes, and weight finiteness.
func DecodeNetwork(dec *ckpt.Dec) (Network, error) {
	tag := dec.U8()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	switch tag {
	case netMLP:
		return decodeMLP(dec)
	case netTwoHead:
		return decodeTwoHead(dec)
	}
	return nil, fmt.Errorf("%w: unknown network topology tag %d", ckpt.ErrMalformed, tag)
}

func decodeCount(dec *ckpt.Dec, what string) (int, error) {
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if n <= 0 || n > maxLayers {
		return 0, fmt.Errorf("%w: %s count %d", ckpt.ErrMalformed, what, n)
	}
	return n, nil
}

func decodeMLP(dec *ckpt.Dec) (*MLP, error) {
	n, err := decodeCount(dec, "layer")
	if err != nil {
		return nil, err
	}
	m := &MLP{}
	prev := 0
	for i := 0; i < n; i++ {
		l, err := decodeDense(dec, prev)
		if err != nil {
			return nil, err
		}
		m.Layers = append(m.Layers, l)
		prev = l.Out
	}
	return m, nil
}

func decodeTwoHead(dec *ckpt.Dec) (*TwoHead, error) {
	nTrunk := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nTrunk < 0 || nTrunk > maxLayers {
		return nil, fmt.Errorf("%w: trunk layer count %d", ckpt.ErrMalformed, nTrunk)
	}
	t := &TwoHead{}
	prev := 0
	for i := 0; i < nTrunk; i++ {
		l, err := decodeDense(dec, prev)
		if err != nil {
			return nil, err
		}
		t.Trunk = append(t.Trunk, l)
		prev = l.Out
	}
	trunkOut := prev
	nHeads, err := decodeCount(dec, "head")
	if err != nil {
		return nil, err
	}
	for h := 0; h < nHeads; h++ {
		depth, err := decodeCount(dec, "head layer")
		if err != nil {
			return nil, err
		}
		var stack []*Dense
		prev = trunkOut
		for i := 0; i < depth; i++ {
			l, err := decodeDense(dec, prev)
			if err != nil {
				return nil, err
			}
			stack = append(stack, l)
			prev = l.Out
		}
		if stack[len(stack)-1].Out != 1 {
			return nil, fmt.Errorf("%w: head %d ends in width %d, want 1",
				ckpt.ErrMalformed, h, stack[len(stack)-1].Out)
		}
		t.Heads = append(t.Heads, stack)
	}
	t.out = make([]float64, nHeads)
	t.finish()
	return t, nil
}
