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

// EncodeDense appends a single layer — for composite topologies (the rl
// critic's state/action concat structure) that no Network topology tag
// expresses.
func EncodeDense(e *ckpt.Enc, d *Dense) { encodeDense(e, d) }

// DecodeDense reads one layer written by EncodeDense, with the same
// validation as network decoding; wantIn > 0 pins the input width.
func DecodeDense(dec *ckpt.Dec, wantIn int) (*Dense, error) { return decodeDense(dec, wantIn) }

// EncodeNetwork appends a network (MLP or TwoHead) to the encoder in the
// binary checkpoint format. Encoding into a reused Enc is allocation-free at
// steady state.
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

// EncodeState appends the optimizer's full state — step count and
// first/second moments for every parameter — so a restored trainer resumes
// with bit-identical update dynamics.
func (a *Adam) EncodeState(e *ckpt.Enc) {
	e.Int(a.t)
	e.F64(a.MaxGradNorm)
	e.Int(len(a.layers))
	for li := range a.layers {
		e.F64s(a.mw[li])
		e.F64s(a.vw[li])
		e.F64s(a.mb[li])
		e.F64s(a.vb[li])
	}
}

// RestoreState reads state written by EncodeState into an optimizer already
// constructed over the same layer set, validating every moment array length.
func (a *Adam) RestoreState(dec *ckpt.Dec) error {
	t := dec.Int()
	maxNorm := dec.FiniteF64()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if t < 0 {
		return fmt.Errorf("%w: adam step count %d", ckpt.ErrMalformed, t)
	}
	if n != len(a.layers) {
		return fmt.Errorf("%w: adam state spans %d layers, optimizer has %d",
			ckpt.ErrMalformed, n, len(a.layers))
	}
	for li, l := range a.layers {
		mw := dec.FiniteF64s()
		vw := dec.FiniteF64s()
		mb := dec.FiniteF64s()
		vb := dec.FiniteF64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(mw) != len(l.W) || len(vw) != len(l.W) || len(mb) != len(l.B) || len(vb) != len(l.B) {
			return fmt.Errorf("%w: adam moment shapes for layer %d do not match %d→%d",
				ckpt.ErrMalformed, li, l.In, l.Out)
		}
		copy(a.mw[li], mw)
		copy(a.vw[li], vw)
		copy(a.mb[li], mb)
		copy(a.vb[li], vb)
	}
	a.t = t
	a.MaxGradNorm = maxNorm
	return nil
}
