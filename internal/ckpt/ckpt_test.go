package ckpt

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, make([]byte, 4096)}
	for i := range payloads[3] {
		payloads[3][i] = byte(i * 31)
	}
	for _, p := range payloads {
		sealed := Seal(KindPolicy, p)
		gotKind, gotPayload, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%d bytes)): %v", len(p), err)
		}
		if gotKind != KindPolicy {
			t.Fatalf("kind %s != %s", gotKind, KindPolicy)
		}
		if len(gotPayload) != len(p) {
			t.Fatalf("payload length %d != %d", len(gotPayload), len(p))
		}
		for i := range p {
			if gotPayload[i] != p[i] {
				t.Fatalf("payload byte %d differs", i)
			}
		}
	}
}

func TestSealIntoMatchesSeal(t *testing.T) {
	payload := []byte("deeppower policy bytes")
	want := Seal(KindPolicy, payload)
	buf := make([]byte, 0, 256)
	got := SealInto(buf, KindPolicy, payload)
	if string(got) != string(want) {
		t.Fatal("SealInto output differs from Seal")
	}
	// Reuse must not allocate beyond the existing capacity.
	allocs := testing.AllocsPerRun(100, func() {
		buf = SealInto(buf[:0], KindPolicy, payload)
	})
	if allocs != 0 {
		t.Fatalf("SealInto with reused buffer allocated %.1f times per run", allocs)
	}
}

// TestSealVersions: containers are sealed at version 1, the version
// exported policies have always had, so they keep their bytes.
func TestSealVersions(t *testing.T) {
	b := Seal(KindPolicy, nil)
	if v := uint16(b[4]) | uint16(b[5])<<8; v != 1 {
		t.Errorf("policy sealed at version %d, want 1", v)
	}
}

// TestOpenRejectsHeaderTampering flips each header field in turn and checks
// the decoder reports the right typed error.
func TestOpenRejectsHeaderTampering(t *testing.T) {
	base := Seal(KindPolicy, []byte("weights"))
	cases := []struct {
		name   string
		mutate func(b []byte)
		want   error
	}{
		{"magic byte 0", func(b []byte) { b[0] = 'X' }, ErrBadMagic},
		{"magic byte 3", func(b []byte) { b[3] ^= 0xFF }, ErrBadMagic},
		{"version bump", func(b []byte) { b[4]++ }, ErrVersion},
		{"version zero", func(b []byte) { b[4], b[5] = 0, 0 }, ErrVersion},
		{"trainer state at version 1", func(b []byte) { b[6] = 2 }, ErrKind},
		{"kind zero", func(b []byte) { b[6] = 0 }, ErrKind},
		{"kind unknown", func(b []byte) { b[6] = 99 }, ErrKind},
		{"length short", func(b []byte) { b[7]-- }, ErrTruncated},
		{"length long", func(b []byte) { b[7]++ }, ErrTruncated},
		{"length absurd", func(b []byte) { b[13] = 0xFF }, ErrMalformed},
		{"crc flipped", func(b []byte) { b[15] ^= 1 }, ErrChecksum},
		{"payload bit flip", func(b []byte) { b[headerLen] ^= 0x80 }, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), base...)
			tc.mutate(b)
			_, _, err := Open(b)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
		})
	}
	// Truncation at every possible boundary.
	for n := 0; n < len(base); n++ {
		if _, _, err := Open(base[:n]); err == nil {
			t.Fatalf("Open accepted %d-byte prefix of a %d-byte container", n, len(base))
		}
	}
}

// TestOpenRejectsRandomCorruption flips random bytes anywhere in the sealed
// container; any change must fail validation (a single-byte flip cannot
// collide CRC32).
func TestOpenRejectsRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 512)
	rng.Read(payload)
	base := Seal(KindPolicy, payload)
	for i := 0; i < 500; i++ {
		b := append([]byte(nil), base...)
		pos := rng.Intn(len(b))
		delta := byte(1 + rng.Intn(255))
		b[pos] ^= delta
		if _, _, err := Open(b); err == nil {
			t.Fatalf("iteration %d: Open accepted container with byte %d xor %#x", i, pos, delta)
		}
	}
}

func TestOpenKind(t *testing.T) {
	sealed := Seal(KindPolicy, []byte("q"))
	if _, err := OpenKind(sealed, KindPolicy); err != nil {
		t.Fatalf("OpenKind same kind: %v", err)
	}
	retired := append([]byte(nil), sealed...)
	retired[6] = 5
	if _, err := OpenKind(retired, KindPolicy); !errors.Is(err, ErrKind) {
		t.Fatalf("OpenKind wrong kind: got %v, want ErrKind", err)
	}
	if _, err := OpenKind([]byte(`{"layers": [], "json": true}`), KindPolicy); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenKind on JSON: got %v, want ErrBadMagic", err)
	}
	if _, err := OpenKind(nil, KindPolicy); !errors.Is(err, ErrTruncated) {
		t.Fatalf("OpenKind on nil: got %v, want ErrTruncated", err)
	}
}

func TestEncDecPrimitives(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(123456)
	e.F64(math.Pi)
	e.F64s([]float64{1, -2.5, 0})

	d := NewDec(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	fs := d.F64s()
	if len(fs) != 3 || fs[0] != 1 || fs[1] != -2.5 || fs[2] != 0 {
		t.Fatalf("F64s = %v", fs)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecDefensiveness(t *testing.T) {
	t.Run("truncated take", func(t *testing.T) {
		d := NewDec([]byte{1, 2})
		d.U64()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("got %v", d.Err())
		}
	})
	t.Run("sticky error", func(t *testing.T) {
		d := NewDec(nil)
		d.U32()
		first := d.Err()
		d.U64()
		d.F64s()
		if d.Err() != first {
			t.Fatal("error was overwritten")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		d := NewDec([]byte{1, 2, 3})
		d.U8()
		if !errors.Is(d.Finish(), ErrMalformed) {
			t.Fatalf("got %v", d.Finish())
		}
	})
	t.Run("oversized slice length", func(t *testing.T) {
		var e Enc
		e.U32(1 << 30) // declares 8 GiB of floats
		d := NewDec(e.Bytes())
		d.F64s()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("got %v", d.Err())
		}
	})
	t.Run("non-finite rejected", func(t *testing.T) {
		for _, v := range []float64{math.NaN(), math.Inf(-1)} {
			var e Enc
			e.F64s([]float64{1, v})
			d := NewDec(e.Bytes())
			d.FiniteF64s()
			if !errors.Is(d.Err(), ErrNonFinite) {
				t.Fatalf("%v: got %v", v, d.Err())
			}
		}
	})
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ckpt")
	if err := WriteFileAtomic(path, Seal(KindPolicy, []byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, Seal(KindPolicy, []byte("v2"))); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindPolicy || string(payload) != "v2" {
		t.Fatalf("read back %s %q", kind, payload)
	}
	// No temp debris may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1", len(entries))
	}
}

func TestReadFileRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ckpt")
	sealed := Seal(KindPolicy, []byte("payload"))
	sealed[len(sealed)-1] ^= 1
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Current(); !errors.Is(err, ErrNoCurrent) {
		t.Fatalf("empty registry Current: %v", err)
	}
	if _, err := r.Rollback(); !errors.Is(err, ErrNoCurrent) {
		t.Fatalf("empty registry Rollback: %v", err)
	}

	v1, err := r.Put(Seal(KindPolicy, []byte("first")))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Put(Seal(KindPolicy, []byte("second")))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d", v1, v2)
	}
	// Stored but unpromoted versions are not current.
	if _, err := r.Current(); !errors.Is(err, ErrNoCurrent) {
		t.Fatalf("Current before Promote: %v", err)
	}

	if err := r.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(v2); err != nil {
		t.Fatal(err)
	}
	if cur, _ := r.Current(); cur != v2 {
		t.Fatalf("current %d, want %d", cur, v2)
	}

	// Rollback returns to the previous good version.
	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 {
		t.Fatalf("rolled back to %d, want %d", back, v1)
	}
	if cur, _ := r.Current(); cur != v1 {
		t.Fatalf("current after rollback %d, want %d", cur, v1)
	}
	// No earlier version left: the ladder must get ErrNoFallback.
	if _, err := r.Rollback(); !errors.Is(err, ErrNoFallback) {
		t.Fatalf("second rollback: %v, want ErrNoFallback", err)
	}

	_, kind, payload, err := r.GetCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindPolicy || string(payload) != "first" {
		t.Fatalf("GetCurrent = %s %q", kind, payload)
	}
}

func TestRegistryRejectsInvalidPut(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put([]byte("not a container")); err == nil {
		t.Fatal("Put accepted garbage")
	}
	if _, _, err := r.Get(1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := r.Promote(1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Promote missing: %v", err)
	}
}

// TestRegistryRecoversAcrossReopen reopens the directory and checks version
// numbering and the promotion history survive a process restart.
func TestRegistryRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := r.Put(Seal(KindPolicy, []byte("a")))
	v2, _ := r.Put(Seal(KindPolicy, []byte("b")))
	if err := r.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(v2); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := r2.Current(); cur != v2 {
		t.Fatalf("reopened current %d, want %d", cur, v2)
	}
	if h := r2.History(); len(h) != 2 || h[0] != v1 || h[1] != v2 {
		t.Fatalf("reopened history %v", h)
	}
	v3, err := r2.Put(Seal(KindPolicy, []byte("c")))
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 3 {
		t.Fatalf("version numbering reset: got %d, want 3", v3)
	}
	// Rollback still works after reopen.
	back, err := r2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 {
		t.Fatalf("rolled back to %d, want %d", back, v1)
	}
}

// TestRegistryIgnoresDanglingHistory simulates a crash that deleted a
// checkpoint file but left it in HISTORY: the entry must be dropped.
func TestRegistryIgnoresDanglingHistory(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := r.Put(Seal(KindPolicy, []byte("a")))
	v2, _ := r.Put(Seal(KindPolicy, []byte("b")))
	r.Promote(v1)
	r.Promote(v2)
	if err := os.Remove(filepath.Join(dir, "v0002.ckpt")); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := r2.Current(); cur != v1 {
		t.Fatalf("current %d, want %d after dangling entry dropped", cur, v1)
	}
}
