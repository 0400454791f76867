package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"misam"
)

// The operand pool. Every byte a server receives is generated here from
// -seed; nothing is read from disk. Five families, chosen so that the
// pool covers the regimes the four designs were built for and one shape
// that makes the simulator's tile loop iterate:
//
//	hs_x_dense   power-law 3000², 24 k nnz × dense 3000×32
//	hs_x_hs      power-law 2500², 15 k nnz, B = A
//	dnn_x_dnn    DNN-pruned 512×1024 @0.1 × 1024×512 @0.2
//	band_x_band  banded 2000², half-bandwidth 4, B = A
//	multitile    power-law 10000², 40 k nnz × uniform 10000×16 @0.5
//	             (> 4096 rows, so B splits into several row tiles)
//
// Dimensions and densities are jittered ±25 % between a family's members:
// each parameter takes its factors from a ladder of evenly spaced values,
// shuffled once per family and parameter — not per seed. The seed draws
// the matrices themselves (which entries are nonzero, and their values),
// the request order and the arrival gaps. Every seed therefore offers
// different inputs of exactly the same shapes, so two seeds measure the
// same amount of work and their numbers can be compared.
var familyNames = [...]string{"hs_x_dense", "hs_x_hs", "dnn_x_dnn", "band_x_band", "multitile"}

const (
	fullPoolPairs  = 40
	quickPoolPairs = 8
)

// pair is one A×B operand pair with its pre-encoded binary request body.
type pair struct {
	family string
	a, b   *misam.Matrix
	body   []byte // A's MCSR frame followed by B's
	aLen   int    // bytes of body that belong to A's frame
}

// ladder returns count jitter factors in [0.75, 1.25], evenly spaced and
// shuffled by rng.
func ladder(rng *rand.Rand, count int) []float64 {
	out := make([]float64, count)
	for i, p := range rng.Perm(count) {
		out[i] = 0.75 + 0.5*(float64(p)+0.5)/float64(count)
	}
	return out
}

func scale(base int, f float64) int { return int(math.Round(float64(base) * f)) }

// newPool generates n pairs, family i%5 for pair i, as a function of the
// seed alone.
func newPool(seed int64, n int) []*pair {
	pool := make([]*pair, n)
	nf := len(familyNames)
	for f, name := range familyNames {
		count := (n - f + nf - 1) / nf // members of family f among n pairs
		if count <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(f))) // shapes do not depend on the seed
		j0, j1, j2, j3 := ladder(rng, count), ladder(rng, count), ladder(rng, count), ladder(rng, count)
		for m := 0; m < count; m++ {
			s := seed*1_000_003 + int64(1000*(f+1)+2*m) // B uses s+1
			var a, b *misam.Matrix
			switch name {
			case "hs_x_dense":
				rows := scale(3000, j0[m])
				a = genPowerLaw(s, rows, rows, scale(24000, j1[m]), 1.9)
				b = genDense(s+1, rows, scale(32, j2[m]))
			case "hs_x_hs":
				rows := scale(2500, j0[m])
				a = genPowerLaw(s, rows, rows, scale(15000, j1[m]), 1.9)
				b = a
			case "dnn_x_dnn":
				m0, k, n0 := scale(512, j0[m]), scale(1024, j1[m]), scale(512, j2[m])
				a = genDNNPruned(s, m0, k, 0.1*j3[m])
				b = genDNNPruned(s+1, k, n0, 0.2*j3[m])
			case "band_x_band":
				rows := scale(2000, j0[m])
				a = genBanded(s, rows, rows, scale(4, j1[m]), 0.8)
				b = a
			case "multitile":
				rows := scale(10000, j0[m])
				a = genPowerLaw(s, rows, rows, scale(40000, j1[m]), 1.9)
				b = genUniform(s+1, rows, scale(16, j2[m]), 0.5*j3[m])
			}
			p := &pair{family: name, a: a, b: b}
			p.body = appendFrame(nil, a)
			p.aLen = len(p.body)
			p.body = appendFrame(p.body, b)
			pool[m*nf+f] = p
		}
	}
	return pool
}

// jsonBody renders the pair as the JSON transport's request: both
// operands as MatrixMarket documents. %.17g round-trips every value, so
// the server parses exactly the operands the binary body carries.
func (p *pair) jsonBody() ([]byte, error) {
	var a, b bytes.Buffer
	if err := writeMtx(&a, p.a); err != nil {
		return nil, err
	}
	if err := writeMtx(&b, p.b); err != nil {
		return nil, err
	}
	return json.Marshal(map[string]string{"a_mtx": a.String(), "b_mtx": b.String()})
}

// mode is how one request derives its body from its pair's base body.
type mode uint8

const (
	// modeRepeat sends the base body unchanged: an analysis-cache hit.
	modeRepeat mode = iota
	// modeRevalue overwrites one value of A: the content key changes
	// (cache miss) but the sparsity pattern does not, so the simulator's
	// value-blind tile cache still hits.
	modeRevalue
	// modeRotate rotates A's rows cyclically: a new structure (cache miss
	// and tile-cache miss) whose row-length multiset and column counts —
	// and so the selector's features — are those of the base.
	modeRotate
)

func (m mode) String() string { return [...]string{"repeat", "revalue", "rotate"}[m] }

// MCSR frame layout (internal/sparse/binary.go): 32-byte header, then
// rows+1 RowPtr words, nnz ColIdx words, nnz Val words, all 8-byte LE.
const wireHeader = 32

// frame returns the body of a request in the given mode. A mode that
// changes bytes builds its body in *scratch (grown as needed and reused
// by the next call); modeRepeat returns the shared base body, which
// callers must not write to. arg is the request number for modeRevalue
// and the rotation k (0 < k < rows) for modeRotate.
func (p *pair) frame(scratch *[]byte, m mode, arg int) []byte {
	if m == modeRepeat {
		return p.body
	}
	buf := append((*scratch)[:0], p.body...)
	*scratch = buf
	rows, nnz := p.a.Rows, p.a.NNZ()
	rp := buf[wireHeader : wireHeader+8*(rows+1)]
	ci := buf[wireHeader+8*(rows+1) : wireHeader+8*(rows+1+nnz)]
	va := buf[wireHeader+8*(rows+1+nnz) : p.aLen]
	switch m {
	case modeRevalue:
		// Generated values lie in [-1, 1); 1+x never collides with the
		// base and differs for every request number.
		v := 1 + float64(arg%(1<<30)+1)/float64(1<<31)
		binary.LittleEndian.PutUint64(va[:8], math.Float64bits(v))
	case modeRotate:
		k := arg
		cut := p.a.RowPtr[k] // entries of rows [0, k) move to the back
		src := p.body[wireHeader+8*(rows+1):]
		copy(ci, src[8*cut:8*nnz])
		copy(ci[8*(nnz-cut):], src[:8*cut])
		src = p.body[wireHeader+8*(rows+1+nnz):]
		copy(va, src[8*cut:8*nnz])
		copy(va[8*(nnz-cut):], src[:8*cut])
		for i := 0; i <= rows; i++ {
			var v int
			if i <= rows-k {
				v = p.a.RowPtr[i+k] - cut
			} else {
				v = nnz - cut + p.a.RowPtr[i-(rows-k)]
			}
			binary.LittleEndian.PutUint64(rp[8*i:], uint64(v))
		}
	}
	return buf
}

// request is one entry of a workload's request stream.
type request struct {
	pair int
	mode mode
	arg  int
}

// stream maps a request number to its pair and mode as a pure function
// of the seed, so closed-loop clients can pull numbers from a shared
// counter and still replay the same stream. Pairs cycle through a seeded
// permutation (each pair once per cycle). Modes are dealt in blocks of
// mixBlock requests holding exactly the configured count of each mode in
// a per-block seeded order, so a window's share of cold requests does not
// wander with the seed.
type stream struct {
	seed  int64
	perm  []int
	mix   [3]int // requests per block in each mode; sums to mixBlock
	minAR int    // fewest rows of any A: bounds the rotation count
}

const mixBlock = 20

func newStream(seed int64, pool []*pair, mix [3]int) *stream {
	if mix[0]+mix[1]+mix[2] != mixBlock {
		panic("benchmark: mode mix must sum to mixBlock")
	}
	s := &stream{seed: seed, mix: mix, minAR: math.MaxInt}
	s.perm = rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(pool))
	for _, p := range pool {
		if p.a.Rows < s.minAR {
			s.minAR = p.a.Rows
		}
	}
	return s
}

// splitmix is the splitmix64 finalizer, used as a stateless seeded hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// at returns request i. A rotation uses k = 1 + (cycle number), so a pair
// never sees the same k twice; it reports an error once a run is long
// enough to exhaust the distinct rotations of the shortest A.
func (s *stream) at(i int) (request, error) {
	n := len(s.perm)
	r := request{pair: s.perm[i%n], arg: i}
	// Fisher-Yates over the block's mode multiset, keyed by (seed, block).
	var deck [mixBlock]mode
	pos := 0
	for m, c := range s.mix {
		for ; c > 0; c-- {
			deck[pos] = mode(m)
			pos++
		}
	}
	h := splitmix(uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(i/mixBlock))
	for j := mixBlock - 1; j > 0; j-- {
		h = splitmix(h)
		t := int(h % uint64(j+1))
		deck[j], deck[t] = deck[t], deck[j]
	}
	r.mode = deck[i%mixBlock]
	if r.mode == modeRotate {
		k := 1 + i/n
		if k >= s.minAR {
			return r, fmt.Errorf("request %d: every rotation of a %d-row A has been used", i, s.minAR)
		}
		r.arg = k
	}
	return r, nil
}

// arrivals returns the open-loop schedule: the due time of each request
// relative to the window start. The count is fixed at rate×dur and the
// times are sorted uniform draws — a Poisson process conditioned on its
// count — so every seed offers the same load with different gaps.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0xa771))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
