// Package ckpt is the repo's durability layer: a deterministic, versioned
// binary container for trained policies, crash-safe file I/O, and a small
// promote/rollback policy registry.
//
// The container layout is
//
//	magic "DPCK" | version u16 | kind u8 | payload length u64 | CRC32 u32 | payload
//
// (all integers little-endian, CRC32 = IEEE over the payload bytes). The
// payload itself is written with the Enc/Dec primitives below: fixed-width
// integers, IEEE-754 float64 bit patterns, and length-prefixed slices —
// no reflection, no maps, byte-identical output for identical state.
//
// Decoding is defensive by construction: every read is bounds-checked
// (ErrTruncated), the header is validated field by field (ErrBadMagic,
// ErrKind, then ErrVersion), the checksum must match (ErrChecksum), and
// higher-level decoders reject impossible shapes
// (ErrMalformed) and non-finite weights (ErrNonFinite) — a corrupt
// checkpoint must fail loudly at load time, never silently actuate garbage
// frequencies.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies a ckpt container file.
const Magic = "DPCK"

// headerLen is magic(4) + version(2) + kind(1) + payloadLen(8) + crc(4).
const headerLen = 4 + 2 + 1 + 8 + 4

// maxPayload bounds the declared payload length a decoder will believe, so
// a corrupt header cannot make a reader attempt a multi-gigabyte allocation.
const maxPayload = 1 << 30

// Kind identifies what a container's payload holds.
type Kind uint8

// KindPolicy is an exported actor/Q network — the unit the registry stores
// and the serving/hot-swap path consumes — and the only kind. Kinds start at
// 1: a zeroed header names no kind. Kinds 2–5 held trainer state in older
// builds and are rejected like any unknown kind.
const KindPolicy Kind = 1

// String names the kind for error messages.
func (k Kind) String() string {
	if k == KindPolicy {
		return "policy"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func (k Kind) valid() bool { return k == KindPolicy }

// formatVersion is the version every container is sealed at: the header
// layout and the policy payload layout. Decoders accept exactly this
// version; the version/compat policy is documented in DESIGN.md.
const formatVersion = 1

// Typed decode errors. Callers branch with errors.Is; every error carries a
// human-readable detail via %w wrapping.
var (
	// ErrTruncated marks input shorter than its own declarations.
	ErrTruncated = errors.New("ckpt: truncated input")
	// ErrBadMagic marks input that is not a ckpt container at all.
	ErrBadMagic = errors.New("ckpt: bad magic")
	// ErrVersion marks a container from an unknown format version.
	ErrVersion = errors.New("ckpt: unsupported format version")
	// ErrKind marks an unregistered or unexpected payload kind.
	ErrKind = errors.New("ckpt: unexpected payload kind")
	// ErrChecksum marks payload bytes that fail the header CRC.
	ErrChecksum = errors.New("ckpt: payload checksum mismatch")
	// ErrMalformed marks a payload whose declared shapes are impossible.
	ErrMalformed = errors.New("ckpt: malformed payload")
	// ErrNonFinite marks a payload carrying NaN or Inf weights.
	ErrNonFinite = errors.New("ckpt: non-finite value in payload")
)

// Seal wraps payload in a container of the given kind: header, CRC, payload.
// The returned slice is freshly allocated.
func Seal(kind Kind, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	SealInto(out[:0], kind, payload)
	return out
}

// SealInto appends the sealed container to dst (which may be nil) and
// returns the extended slice — the allocation-free variant for callers that
// reuse a buffer across calls.
func SealInto(dst []byte, kind Kind, payload []byte) []byte {
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint16(dst, formatVersion)
	dst = append(dst, byte(kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Open validates a container and returns its kind and payload (aliasing
// data). It rejects truncated input, foreign magic, unknown versions and
// kinds, length mismatches, and checksum failures with typed errors.
func Open(data []byte) (Kind, []byte, error) {
	if len(data) < headerLen {
		return 0, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerLen)
	}
	if string(data[:4]) != Magic {
		return 0, nil, fmt.Errorf("%w: %q", ErrBadMagic, data[:4])
	}
	kind := Kind(data[6])
	if !kind.valid() {
		return 0, nil, fmt.Errorf("%w: %s", ErrKind, kind)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != formatVersion {
		return 0, nil, fmt.Errorf("%w: %d (decoder speaks %d)", ErrVersion, v, formatVersion)
	}
	plen := binary.LittleEndian.Uint64(data[7:15])
	if plen > maxPayload {
		return 0, nil, fmt.Errorf("%w: declared payload %d exceeds limit", ErrMalformed, plen)
	}
	if uint64(len(data)-headerLen) != plen {
		return 0, nil, fmt.Errorf("%w: payload %d bytes, header declares %d",
			ErrTruncated, len(data)-headerLen, plen)
	}
	payload := data[headerLen:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[15:19]) {
		return 0, nil, fmt.Errorf("%w: computed %08x, header declares %08x",
			ErrChecksum, crc, binary.LittleEndian.Uint32(data[15:19]))
	}
	return kind, payload, nil
}

// OpenKind is Open restricted to one expected kind.
func OpenKind(data []byte, want Kind) ([]byte, error) {
	kind, payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrKind, kind, want)
	}
	return payload, nil
}

// Enc appends primitive values to a growing byte buffer. The zero value is
// ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded payload (aliasing the internal buffer).
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends an IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed float64 slice.
func (e *Enc) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Dec reads primitive values from a payload with sticky-error semantics:
// after the first failure every further read returns zero values, and Err
// reports the failure. Decoders can therefore read an entire structure
// linearly and check the error once.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err reports the first decode failure, nil if none.
func (d *Dec) Err() error { return d.err }

// Len reports unread bytes.
func (d *Dec) Len() int { return len(d.buf) - d.off }

// Finish errors unless the payload was consumed exactly.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	return d.err
}

// fail records the first error.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil after marking truncation.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64 and errors if it does not fit an int.
func (d *Dec) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("%w: int64 %d overflows int", ErrMalformed, v))
		return 0
	}
	return int(v)
}

// F64 reads an IEEE-754 bit pattern (NaN/Inf pass through; use FiniteF64s
// where non-finite values must be rejected).
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F64s reads a length-prefixed float64 slice, bounding the declared length
// by the remaining input so corrupt lengths cannot force huge allocations.
func (d *Dec) F64s() []float64 {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n*8 > d.Len() {
		d.fail(fmt.Errorf("%w: slice of %d float64s exceeds %d remaining bytes",
			ErrTruncated, n, d.Len()))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// FiniteF64s is F64s with a finiteness sweep.
func (d *Dec) FiniteF64s() []float64 {
	out := d.F64s()
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.fail(fmt.Errorf("%w: %v", ErrNonFinite, v))
			return nil
		}
	}
	return out
}
