package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// binaryCorpus spans the generator families plus the degenerate shapes
// (empty matrix, empty rows, single row/column) the wire validator has
// to frame correctly.
func binaryCorpus(t testing.TB) []*CSR {
	rng := rand.New(rand.NewSource(88))
	ms := []*CSR{
		{Rows: 0, Cols: 0, RowPtr: []int{0}},
		{Rows: 3, Cols: 5, RowPtr: []int{0, 0, 0, 0}, ColIdx: []int{}, Val: []float64{}},
		Identity(1),
		Identity(7),
		Uniform(rng, 64, 48, 0.05),
		PowerLaw(rng, 80, 80, 400, 1.2),
		Banded(rng, 60, 60, 3, 0.8),
		Block(rng, 64, 64, 8, 0.3, 0.5),
		DNNPruned(rng, 48, 96, 0.1, true, 4),
		Imbalanced(rng, 72, 40, 300, 0.1, 0.7),
		DenseRandom(rng, 12, 9),
	}
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("corpus matrix %d invalid: %v", i, err)
		}
	}
	return ms
}

func csrEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	for i, m := range binaryCorpus(t) {
		buf := EncodeBinary(m)
		if len(buf) != EncodedSize(m) {
			t.Fatalf("matrix %d: encoded %d bytes, EncodedSize says %d", i, len(buf), EncodedSize(m))
		}
		got, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("matrix %d: decode: %v", i, err)
		}
		if !csrEqual(m, got) {
			t.Fatalf("matrix %d: round trip mismatch", i)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("matrix %d: decoded matrix invalid: %v", i, err)
		}
	}
}

// TestBinaryRoundTripMisaligned forces the copy path by parsing from an
// odd offset into a larger buffer, so the alias gate must reject it.
func TestBinaryRoundTripMisaligned(t *testing.T) {
	for i, m := range binaryCorpus(t) {
		shifted := append(make([]byte, 0, EncodedSize(m)+1), 0xEE)
		shifted = AppendBinary(shifted, m)
		v, rest, err := ParseWire(shifted[1:])
		if err != nil {
			t.Fatalf("matrix %d: parse at offset 1: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("matrix %d: %d trailing bytes", i, len(rest))
		}
		if aliasable && v.aligned() && m.NNZ() > 0 {
			t.Fatalf("matrix %d: offset-1 buffer reported aligned", i)
		}
		got := v.Decode()
		if !csrEqual(m, got) {
			t.Fatalf("matrix %d: misaligned round trip mismatch", i)
		}
	}
}

// TestWireFingerprintMatchesDecoded is the zero-copy cache-key guarantee:
// hashing the raw wire image must equal hashing the decoded struct, which
// must equal the original matrix's fingerprint.
func TestWireFingerprintMatchesDecoded(t *testing.T) {
	for i, m := range binaryCorpus(t) {
		buf := EncodeBinary(m)
		v, _, err := ParseWire(buf)
		if err != nil {
			t.Fatalf("matrix %d: parse: %v", i, err)
		}
		want := m.Fingerprint()
		if got := v.Fingerprint(); got != want {
			t.Fatalf("matrix %d: wire fingerprint %v != matrix fingerprint %v", i, got, want)
		}
		if got := v.Decode().Fingerprint(); got != want {
			t.Fatalf("matrix %d: decoded fingerprint %v != matrix fingerprint %v", i, got, want)
		}
	}
}

// TestParseWireSequence checks that concatenated blobs parse back out in
// order — the framing used by binary analyze bodies (exactly two blobs)
// and batch bodies (2N blobs).
func TestParseWireSequence(t *testing.T) {
	ms := binaryCorpus(t)
	var buf []byte
	for _, m := range ms {
		buf = AppendBinary(buf, m)
	}
	rest := buf
	for i, m := range ms {
		v, r, err := ParseWire(rest)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if !csrEqual(m, v.Decode()) {
			t.Fatalf("blob %d: mismatch", i)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last blob", len(rest))
	}
}

// TestDecodeCopyIndependent: DecodeCopy results must not alias the wire
// buffer (verify jobs outlive the pooled request body).
func TestDecodeCopyIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Uniform(rng, 32, 32, 0.1)
	buf := EncodeBinary(m)
	v, _, err := ParseWire(buf)
	if err != nil {
		t.Fatal(err)
	}
	cp := v.DecodeCopy()
	for i := range buf {
		buf[i] = 0xFF
	}
	if !csrEqual(m, cp) {
		t.Fatal("DecodeCopy result changed when the wire buffer was clobbered")
	}
}

// corrupt returns enc with one mutation applied; each case must be
// rejected by ParseWire with an error wrapping ErrWire.
func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := Uniform(rng, 16, 16, 0.2)
	enc := EncodeBinary(m)
	nnz := uint64(m.NNZ())
	cases := map[string]func([]byte) []byte{
		"empty":             func(b []byte) []byte { return nil },
		"truncated header":  func(b []byte) []byte { return b[:16] },
		"truncated body":    func(b []byte) []byte { return b[:len(b)-8] },
		"bad magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":       func(b []byte) []byte { b[4] = 9; return b },
		"reserved nonzero":  func(b []byte) []byte { b[6] = 1; return b },
		"rows over cap":     func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 1<<40); return b },
		"cols over cap":     func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 1<<40); return b },
		"nnz over cap":      func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 1<<40); return b },
		"nnz over capacity": func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], 16*16+1); return b },
		"nnz in empty shape": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 0)
			binary.LittleEndian.PutUint64(b[24:], 1)
			return b
		},
		"rowptr[0] nonzero": func(b []byte) []byte { binary.LittleEndian.PutUint64(b[32:], 1); return b },
		"rowptr decreases": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32+8:], nnz)
			return b
		},
		"rowptr overflows nnz": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32+8:], nnz+1)
			return b
		},
		"rowptr[rows] short": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32+8*uint64(m.Rows):], nnz-1)
			return b
		},
		"column out of range": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32+8*uint64(m.Rows+1):], 16)
			return b
		},
		"column negative as uint": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32+8*uint64(m.Rows+1):], math.MaxUint64)
			return b
		},
		"columns not increasing": func(b []byte) []byte {
			// First row has >= 2 entries with this seed; swap its first two columns.
			off := 32 + 8*uint64(m.Rows+1)
			a := binary.LittleEndian.Uint64(b[off:])
			c := binary.LittleEndian.Uint64(b[off+8:])
			binary.LittleEndian.PutUint64(b[off:], c)
			binary.LittleEndian.PutUint64(b[off+8:], a)
			return b
		},
		"trailing bytes": func(b []byte) []byte { return append(b, 0) },
	}
	if m.RowNNZ(0) < 2 {
		t.Fatal("test seed no longer gives row 0 two entries; pick another seed")
	}
	for name, mutate := range cases {
		b := mutate(bytes.Clone(enc))
		_, err := DecodeBinary(b)
		if !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
		// The byte-wise validator behind misaligned buffers must give the
		// aligned word-wise one's verdict, message included.
		for off := 1; off < 8; off++ {
			shifted := append(make([]byte, off, off+len(b)), b...)[off:]
			if _, serr := DecodeBinary(shifted); serr == nil || serr.Error() != err.Error() {
				t.Errorf("%s at offset %d: got %v, aligned got %v", name, off, serr, err)
			}
		}
	}
	// The untouched encoding still decodes (the mutations above are the
	// reason for each failure, not a broken fixture).
	if _, err := DecodeBinary(enc); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}
}

// TestDecodeBinarySteadyStateZeroAllocs pins the serving-path guarantee:
// once a reusable CSR and an aligned buffer exist, decoding is free.
func TestDecodeBinarySteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := Uniform(rng, 256, 256, 0.02)
	buf := EncodeBinary(m)
	var dst CSR
	if _, err := DecodeBinaryInto(&dst, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBinaryInto(&dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeBinaryInto: %v allocs/op, want 0", allocs)
	}
	// The copy path is also allocation-free once dst capacity is warm.
	shifted := append(make([]byte, 0, len(buf)+1), 0xEE)
	shifted = append(shifted, buf...)
	var cdst CSR
	v, _, err := ParseWire(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	v.DecodeInto(&cdst)
	allocs = testing.AllocsPerRun(100, func() {
		v.DecodeInto(&cdst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state copy DecodeInto: %v allocs/op, want 0", allocs)
	}
}

func FuzzDecodeBinary(f *testing.F) {
	for _, m := range []*CSR{
		{Rows: 0, Cols: 0, RowPtr: []int{0}},
		Identity(3),
		Uniform(rand.New(rand.NewSource(1)), 12, 10, 0.2),
	} {
		f.Add(EncodeBinary(m))
	}
	f.Add([]byte("MCSR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("decode error outside ErrWire: %v", err)
			}
			return
		}
		// Anything the decoder accepts must satisfy the full CSR
		// invariants and re-encode to the identical byte image.
		if verr := m.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid matrix: %v", verr)
		}
		re := EncodeBinary(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs from accepted input (len %d vs %d)", len(re), len(data))
		}
		if m.Fingerprint() != mustView(t, data).Fingerprint() {
			t.Fatal("wire fingerprint differs from decoded fingerprint")
		}
	})
}

func mustView(t testing.TB, data []byte) WireView {
	v, _, err := ParseWire(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func BenchmarkEncodeBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := Uniform(rng, 2000, 2000, 0.01)
	buf := make([]byte, 0, EncodedSize(m))
	b.SetBytes(int64(EncodedSize(m)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendBinary(buf[:0], m)
	}
	_ = buf
}

func BenchmarkDecodeBinarySteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := Uniform(rng, 2000, 2000, 0.01)
	buf := EncodeBinary(m)
	var dst CSR
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinaryInto(&dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}
