package sparse

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Fingerprint is a 128-bit content hash of a matrix. Two matrices with
// identical dimensions, row pointers, column indices and values — however
// they were built — produce the same fingerprint; changing any single
// dimension, index or value always changes it. The analysis cache
// (internal/memo) keys on pair fingerprints, so the hash must run at
// memory speed on nnz-sized inputs and resist the structured,
// low-entropy differences sparse matrices exhibit (off-by-one indices,
// single pruned weights); cryptographic strength is not a goal.
type Fingerprint struct {
	Hi, Lo uint64
}

// Mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection on
// 64-bit words, so neighbouring integers (the common case for sparse
// indices) land in unrelated positions. It is the one mixer behind every
// content hash in the module: fingerprints, memo pair keys, tile-cache
// salts and cluster ring points.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Construction. Each of the three word sections (RowPtr, ColIdx, Val
// bits) is hashed on its own by fpLanes independent lanes: word i goes to
// lane i mod fpLanes, and a lane step is lane = Mix64(lane ^ word). The
// lanes have no data dependence on each other, so the multiplies of
// eight words are in flight at once. Every step is a bijection of the
// lane for a fixed word and of the word for a fixed lane, and the folds
// below chain values through Mix64 the same way, so changing any single
// word (or a dimension) always changes the fingerprint, not merely with
// high probability. A section's digest folds its word count and its
// section tag into two chains over the lanes; the fingerprint chains the
// dimensions and the three section digests. Tags and lengths keep
// differently split streams apart: moving a word from ColIdx to RowPtr
// changes two section lengths.
const fpLanes = 8

// Section tags seed each section's lanes; the fold seeds start the
// digest and fingerprint chains. Any distinct constants will do.
const (
	tagRowPtr = 0x2545f4914f6cdd1d
	tagColIdx = 0x9e3779b97f4a7c15
	tagVal    = 0xc2b2ae3d27d4eb4f

	seedSumLo = 0xd6e8feb86659fd93
	seedSumHi = 0xff51afd7ed558ccd
	seedDimLo = 0xc4ceb9fe1a85ec53
	seedDimHi = 0x94d049bb133111eb
)

// sectionHash is the lane state of one section.
type sectionHash struct {
	l [fpLanes]uint64
	n uint64 // words hashed so far
}

func newSectionHash(tag uint64) sectionHash {
	var s sectionHash
	for i := range s.l {
		s.l[i] = Mix64(tag + uint64(i)*0x9e3779b97f4a7c15)
	}
	return s
}

// words hashes the whole fpLanes-word blocks of w and returns the rest.
func (s *sectionHash) words(w []uint64) []uint64 {
	l0, l1, l2, l3, l4, l5, l6, l7 := s.l[0], s.l[1], s.l[2], s.l[3], s.l[4], s.l[5], s.l[6], s.l[7]
	n := len(w) &^ (fpLanes - 1)
	for i := 0; i < n; i += fpLanes {
		b := w[i : i+fpLanes : i+fpLanes]
		l0 = Mix64(l0 ^ b[0])
		l1 = Mix64(l1 ^ b[1])
		l2 = Mix64(l2 ^ b[2])
		l3 = Mix64(l3 ^ b[3])
		l4 = Mix64(l4 ^ b[4])
		l5 = Mix64(l5 ^ b[5])
		l6 = Mix64(l6 ^ b[6])
		l7 = Mix64(l7 ^ b[7])
	}
	s.l = [fpLanes]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	s.n += uint64(n)
	return w[n:]
}

// word hashes one word into the next lane in turn.
func (s *sectionHash) word(x uint64) {
	j := s.n % fpLanes
	s.l[j] = Mix64(s.l[j] ^ x)
	s.n++
}

// digest is a section's 128-bit hash.
type digest struct{ hi, lo uint64 }

// sum folds the word count and the lanes into the section's digest.
func (s *sectionHash) sum() digest {
	lo := Mix64(s.n ^ seedSumLo)
	hi := Mix64(s.n + seedSumHi)
	for _, l := range s.l {
		lo = Mix64(lo ^ l)
		hi = Mix64(hi + l)
	}
	return digest{hi, lo}
}

// hashUint64s is the whole-section hash of words already in memory.
func hashUint64s(tag uint64, w []uint64) digest {
	s := newSectionHash(tag)
	for _, x := range s.words(w) {
		s.word(x)
	}
	return s.sum()
}

// hashWireSection hashes a little-endian word section of a wire blob,
// aliasing it when aligned is set and reading it byte-wise otherwise.
func hashWireSection(tag uint64, b []byte, aligned bool) digest {
	if aligned {
		return hashUint64s(tag, aliasWords(b))
	}
	return hashEach(tag, len(b)/8, func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) })
}

// hashEach hashes an n-word section that cannot be aliased as []uint64,
// one word(i) at a time: misaligned wire sections, and every section on
// hosts where []int is not a []uint64 image.
func hashEach(tag uint64, n int, word func(i int) uint64) digest {
	s := newSectionHash(tag)
	for i := 0; i < n; i++ {
		s.word(word(i))
	}
	return s.sum()
}

// combine chains the dimensions and the three section digests into the
// fingerprint.
func combine(rows, cols int, rowPtr, colIdx, val digest) Fingerprint {
	lo := Mix64(uint64(rows) ^ seedDimLo)
	hi := Mix64(uint64(rows) + seedDimHi)
	lo = Mix64(lo ^ uint64(cols))
	hi = Mix64(hi + uint64(cols))
	for _, d := range [3]digest{rowPtr, colIdx, val} {
		lo = Mix64(lo ^ d.lo)
		hi = Mix64(hi + d.hi)
		hi = Mix64(hi ^ d.lo)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}

// Fingerprint hashes the full matrix content: dimensions, RowPtr, ColIdx
// and the bit patterns of Val, each section as its little-endian wire
// words (see the construction above). On 64-bit little-endian hosts the
// slices are hashed in place; the cost is one pass over the stored
// structure, O(rows + nnz), with no allocation.
func (m *CSR) Fingerprint() Fingerprint {
	if aliasable {
		return combine(m.Rows, m.Cols,
			hashUint64s(tagRowPtr, intWords(m.RowPtr)),
			hashUint64s(tagColIdx, intWords(m.ColIdx)),
			hashUint64s(tagVal, floatWords(m.Val)))
	}
	return combine(m.Rows, m.Cols,
		hashEach(tagRowPtr, len(m.RowPtr), func(i int) uint64 { return uint64(m.RowPtr[i]) }),
		hashEach(tagColIdx, len(m.ColIdx), func(i int) uint64 { return uint64(m.ColIdx[i]) }),
		hashEach(tagVal, len(m.Val), func(i int) uint64 { return math.Float64bits(m.Val[i]) }))
}

// intWords and floatWords view 64-bit slices as their words; only valid
// when aliasable.
func intWords(s []int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

func floatWords(s []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
