package sparse

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// cloneCSR deep-copies a CSR so mutation tests can flip one field at a
// time without aliasing the original.
func cloneCSR(m *CSR) *CSR {
	return &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
}

func TestFingerprintEqualContent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Uniform(rng, 200, 300, 0.05)

	// A separately built structural copy must hash identically.
	b := cloneCSR(a)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("separately built CSRs with equal content hash differently")
	}
	// And the fingerprint must be a pure function of content.
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
}

func TestFingerprintMutationSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := Uniform(rng, 64, 80, 0.08)
	if base.NNZ() < 8 {
		t.Fatalf("test matrix too sparse: %d nnz", base.NNZ())
	}
	ref := base.Fingerprint()

	check := func(name string, mut func(m *CSR)) {
		t.Helper()
		m := cloneCSR(base)
		mut(m)
		if m.Fingerprint() == ref {
			t.Errorf("%s: fingerprint unchanged after mutation", name)
		}
	}

	check("rows+1", func(m *CSR) { m.Rows++ })
	check("cols+1", func(m *CSR) { m.Cols++ })
	// Every single value flip must change the hash.
	for i := range base.Val {
		i := i
		check("val", func(m *CSR) { m.Val[i] += 1.0 })
	}
	// Every single column-index nudge must change the hash.
	for i := range base.ColIdx {
		i := i
		check("colidx", func(m *CSR) { m.ColIdx[i] = (m.ColIdx[i] + 1) % m.Cols })
	}
	// Every interior row-pointer nudge must change the hash.
	for i := 1; i < len(base.RowPtr)-1; i++ {
		i := i
		check("rowptr", func(m *CSR) { m.RowPtr[i]++ })
	}
	// Sign and tiny-value flips reach the hash through Float64bits.
	check("negate", func(m *CSR) { m.Val[0] = -m.Val[0] })
	check("negzero", func(m *CSR) { m.Val[0] = 0 }) // 0 vs stored value
}

func TestFingerprintDistinguishesTransposedDims(t *testing.T) {
	// Same flattened content, swapped dimensions: a classic weak-hash trap.
	a := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 1}, Val: []float64{1, 2}}
	b := &CSR{Rows: 3, Cols: 2, RowPtr: []int{0, 1, 2, 2}, ColIdx: []int{0, 1}, Val: []float64{1, 2}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different shapes hash equal")
	}
}

func TestFingerprintPairwiseCollisions(t *testing.T) {
	// A small battery of distinct random matrices must produce distinct
	// fingerprints — a smoke test for gross mixing bugs, not a
	// collision-resistance proof.
	rng := rand.New(rand.NewSource(3))
	seen := make(map[Fingerprint]int)
	for i := 0; i < 200; i++ {
		m := Uniform(rng, 10+rng.Intn(50), 10+rng.Intn(50), 0.02+rng.Float64()*0.2)
		fp := m.Fingerprint()
		if j, ok := seen[fp]; ok {
			t.Fatalf("matrices %d and %d collide", j, i)
		}
		seen[fp] = i
	}
}

// wordCSR builds a CSR straight from three word sections. It need not be
// a valid matrix: Fingerprint hashes whatever the struct holds, and
// these tests reach every section length and word position.
func wordCSR(rows, cols int, rp, ci, val []uint64) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, len(rp)), ColIdx: make([]int, len(ci)), Val: make([]float64, len(val))}
	for i, w := range rp {
		m.RowPtr[i] = int(w)
	}
	for i, w := range ci {
		m.ColIdx[i] = int(w)
	}
	for i, w := range val {
		m.Val[i] = math.Float64frombits(w)
	}
	return m
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestFingerprintEverySingleWordChange covers every lane and every tail
// length: for section lengths 0–17, changing any one word of any section
// by any of a few structured deltas changes the fingerprint. The lane
// steps and folds are bijections, so this holds without exception.
func TestFingerprintEverySingleWordChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	deltas := []func(uint64) uint64{
		func(w uint64) uint64 { return w + 1 },
		func(w uint64) uint64 { return w - 1 },
		func(w uint64) uint64 { return w ^ 1<<63 },
		func(w uint64) uint64 { return ^w },
		func(uint64) uint64 { return 0 },
	}
	for n := 0; n <= 17; n++ {
		secs := [3][]uint64{randWords(rng, n), randWords(rng, n), randWords(rng, n)}
		ref := wordCSR(9, 11, secs[0], secs[1], secs[2]).Fingerprint()
		for s := range secs {
			for i := range secs[s] {
				for d, delta := range deltas {
					mut := [3][]uint64{secs[0], secs[1], secs[2]}
					mut[s] = append([]uint64(nil), secs[s]...)
					if mut[s][i] = delta(secs[s][i]); mut[s][i] == secs[s][i] {
						continue
					}
					if wordCSR(9, 11, mut[0], mut[1], mut[2]).Fingerprint() == ref {
						t.Errorf("length %d: section %d word %d delta %d leaves the fingerprint unchanged", n, s, i, d)
					}
				}
			}
		}
	}
}

// TestFingerprintSectionBoundaries: the same word stream split into
// RowPtr, ColIdx and Val at different points must hash differently, or a
// word moving between sections would go unseen.
func TestFingerprintSectionBoundaries(t *testing.T) {
	stream := randWords(rand.New(rand.NewSource(6)), 12)
	seen := make(map[Fingerprint][2]int)
	for i := 0; i <= len(stream); i++ {
		for j := i; j <= len(stream); j++ {
			fp := wordCSR(4, 4, stream[:i], stream[i:j], stream[j:]).Fingerprint()
			if prev, ok := seen[fp]; ok {
				t.Fatalf("splits %v and %v of one stream collide", prev, [2]int{i, j})
			}
			seen[fp] = [2]int{i, j}
		}
	}
}

// withCopyHost runs f as if on a host where slices cannot alias wire
// words (32-bit or big-endian), exercising the word-at-a-time CSR hash
// and the byte-wise wire paths.
func withCopyHost(f func()) {
	saved := aliasable
	aliasable = false
	defer func() { aliasable = saved }()
	f()
}

// TestSectionHashPathsAgree: the unrolled aliased walk, the word-at-a-
// time walk and the byte-wise wire walk give one digest for every length
// 0–17 (every lane and tail length), at every byte offset.
func TestSectionHashPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 17; n++ {
		w := randWords(rng, n)
		want := hashUint64s(tagColIdx, w)
		if got := hashEach(tagColIdx, n, func(i int) uint64 { return w[i] }); got != want {
			t.Fatalf("length %d: word-at-a-time hash %v != unrolled %v", n, got, want)
		}
		buf := make([]byte, 8*n+8)
		for off := 0; off < 8; off++ {
			b := buf[off : off+8*n]
			for i, x := range w {
				binary.LittleEndian.PutUint64(b[8*i:], x)
			}
			if got := hashWireSection(tagColIdx, b, false); got != want {
				t.Fatalf("length %d offset %d: byte-wise hash %v != aliased %v", n, off, got, want)
			}
		}
	}
}

// TestWireFingerprintMatchesCSRAtEveryOffset extends the wire ≡ CSR
// guarantee to misaligned buffers (the byte-wise path) and to hosts that
// cannot alias.
func TestWireFingerprintMatchesCSRAtEveryOffset(t *testing.T) {
	check := func(t *testing.T) {
		for i, m := range binaryCorpus(t) {
			want := m.Fingerprint()
			for off := 0; off < 8; off++ {
				buf := AppendBinary(make([]byte, off, off+EncodedSize(m)), m)
				v, _, err := ParseWire(buf[off:])
				if err != nil {
					t.Fatalf("matrix %d offset %d: %v", i, off, err)
				}
				if got := v.Fingerprint(); got != want {
					t.Fatalf("matrix %d offset %d: wire fingerprint %v != CSR %v", i, off, got, want)
				}
			}
		}
	}
	check(t)
	withCopyHost(func() { check(t) })
}

// TestFingerprintSteadyStateZeroAllocs pins both fingerprints, on
// aligned and misaligned wire buffers, at 0 allocs/op.
func TestFingerprintSteadyStateZeroAllocs(t *testing.T) {
	m := Uniform(rand.New(rand.NewSource(8)), 256, 256, 0.02)
	enc := EncodeBinary(m)
	shifted := append([]byte{0xEE}, enc...)
	for name, fp := range map[string]func() Fingerprint{
		"CSR":             m.Fingerprint,
		"wire aligned":    mustView(t, enc).Fingerprint,
		"wire misaligned": mustView(t, shifted[1:]).Fingerprint,
	} {
		if allocs := testing.AllocsPerRun(100, func() { fp() }); allocs != 0 {
			t.Errorf("%s fingerprint: %v allocs/op, want 0", name, allocs)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := Uniform(rng, 4000, 4000, 0.01)
	b.SetBytes(int64(8 * (len(m.RowPtr) + len(m.ColIdx) + len(m.Val))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fingerprint()
	}
}

// BenchmarkWireFingerprint is BenchmarkFingerprint's matrix hashed off
// an aligned wire buffer, the serving path's content key.
func BenchmarkWireFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := Uniform(rng, 4000, 4000, 0.01)
	v := mustView(b, EncodeBinary(m))
	b.SetBytes(int64(v.EncodedLen() - wireHeaderBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Fingerprint()
	}
}

// fuzzCSR builds a small valid matrix from fuzz bytes: two shape bytes,
// then (row, col, value) triples.
func fuzzCSR(data []byte) *CSR {
	rows, cols := 1, 1
	if len(data) >= 2 {
		rows, cols = 1+int(data[0])%24, 1+int(data[1])%24
		data = data[2:]
	}
	m := NewCOO(rows, cols)
	for k := 0; k+2 < len(data); k += 3 {
		m.Append(int(data[k])%rows, int(data[k+1])%cols, float64(int8(data[k+2]))/8)
	}
	m.Normalize()
	return m.ToCSR()
}

// csrWords returns m's three sections as wire words.
func csrWords(m *CSR) [3][]uint64 {
	w := [3][]uint64{make([]uint64, len(m.RowPtr)), make([]uint64, len(m.ColIdx)), make([]uint64, len(m.Val))}
	for i, x := range m.RowPtr {
		w[0][i] = uint64(x)
	}
	for i, x := range m.ColIdx {
		w[1][i] = uint64(x)
	}
	for i, x := range m.Val {
		w[2][i] = math.Float64bits(x)
	}
	return w
}

// FuzzFingerprint hunts collisions the construction should never give:
// a single-word change (which cannot collide at all), a transposition of
// two unequal words in one section, and a wire fingerprint that differs
// from the CSR one at some buffer alignment.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{3, 5, 0, 1, 9, 1, 2, 200, 2, 4, 7}, uint8(1), uint16(0), uint16(1), uint64(1))
	f.Add([]byte{15, 15, 1, 1, 1, 1, 2, 2, 9, 9, 9, 14, 3, 8}, uint8(5), uint16(2), uint16(10), uint64(1<<63))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, i, j uint16, delta uint64) {
		m := fuzzCSR(data)
		want := m.Fingerprint()
		o := int(off % 8)
		buf := AppendBinary(make([]byte, o, o+EncodedSize(m)), m)
		v, _, err := ParseWire(buf[o:])
		if err != nil {
			t.Fatalf("valid matrix rejected at offset %d: %v", o, err)
		}
		if got := v.Fingerprint(); got != want {
			t.Fatalf("offset %d: wire fingerprint %v != CSR %v", o, got, want)
		}
		secs := csrWords(m)
		for s, w := range secs {
			if len(w) == 0 {
				continue
			}
			a, b := int(i)%len(w), int(j)%len(w)
			mutated := func(edit func(w []uint64)) Fingerprint {
				mut := secs
				mut[s] = append([]uint64(nil), w...)
				edit(mut[s])
				return wordCSR(m.Rows, m.Cols, mut[0], mut[1], mut[2]).Fingerprint()
			}
			if delta != 0 && mutated(func(w []uint64) { w[a] ^= delta }) == want {
				t.Fatalf("section %d: word %d ^= %#x collides", s, a, delta)
			}
			if w[a] != w[b] && mutated(func(w []uint64) { w[a], w[b] = w[b], w[a] }) == want {
				t.Fatalf("section %d: swapping words %d and %d collides", s, a, b)
			}
		}
	})
}
