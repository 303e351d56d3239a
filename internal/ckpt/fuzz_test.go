package ckpt

import (
	"bytes"
	"testing"
)

// FuzzOpen throws arbitrary bytes at the container decoder. The invariants:
// Open never panics, never returns a payload without nil error on malformed
// input, and accepts a re-sealed copy of anything it accepted.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DPCK"))
	f.Add(Seal(KindPolicy, nil))
	f.Add(Seal(KindPolicy, []byte("weights")))
	f.Add(Seal(KindPolicy, bytes.Repeat([]byte{0xAB}, 64)))
	truncated := Seal(KindPolicy, []byte("0123456789"))
	f.Add(truncated[:len(truncated)-3])
	flipped := Seal(KindPolicy, []byte("payload"))
	flipped[headerLen] ^= 0x01
	f.Add(flipped)
	// A trainer-state frame from an older build: kind 2 (ddpg) at version 2.
	retired := Seal(KindPolicy, []byte("weights"))
	retired[4], retired[6] = 2, 2
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Open(data)
		if err != nil {
			return
		}
		if !kind.valid() {
			t.Fatalf("Open returned invalid kind %d without error", kind)
		}
		// Round-trip: re-sealing an accepted payload must reproduce the
		// input byte-for-byte (the header encodes no other state).
		resealed := Seal(kind, payload)
		if !bytes.Equal(resealed, data) {
			t.Fatalf("re-seal mismatch: %d bytes in, %d bytes out", len(data), len(resealed))
		}
	})
}

// FuzzDec drives the primitive decoder with an arbitrary payload and a
// script of reads derived from the payload itself; the decoder must never
// panic and must go sticky-error on bad input rather than looping.
func FuzzDec(f *testing.F) {
	var e Enc
	e.U32(3)
	e.F64s([]float64{1, 2, 3})
	e.Int(8)
	e.F64s([]float64{6, 2})
	f.Add(e.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		for i := 0; i < 64 && d.Err() == nil; i++ {
			switch i % 8 {
			case 0:
				d.U8()
			case 1:
				d.U32()
			case 2:
				d.U64()
			case 3:
				d.Int()
			case 4:
				d.I64()
			case 5:
				d.F64()
			case 6:
				d.F64s()
			case 7:
				d.FiniteF64s()
			}
		}
	})
}
