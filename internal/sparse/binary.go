package sparse

// Binary wire format for CSR matrices — the zero-copy ingestion path.
//
// A serving stack that answers in ~150 µs cannot afford to spend its
// budget parsing MatrixMarket text out of JSON strings: at fast-path
// speeds, decode IS the request. The wire format below is a
// length-prefixed little-endian image of the CSR struct itself, laid out
// so that on a little-endian 64-bit machine a decoder does not have to
// copy anything at all — the RowPtr/ColIdx/Val sections of a properly
// aligned request buffer ARE valid []int and []float64 backing arrays,
// and the decoder just points slice headers at them.
//
// Layout (all fixed-width fields little-endian, every section 8-aligned
// relative to the start of the blob):
//
//	offset 0   magic "MCSR"
//	offset 4   version byte (1)
//	offset 5   3 reserved bytes, must be zero
//	offset 8   rows  uint64
//	offset 16  cols  uint64
//	offset 24  nnz   uint64
//	offset 32  rowPtr  (rows+1) × int64
//	...        colIdx  nnz × int64
//	...        val     nnz × float64 (IEEE 754 bits)
//
// The total length is implied by rows and nnz, so blobs concatenate
// without extra framing, and — because every blob's length is a multiple
// of 8 — a sequence of blobs in one 8-aligned buffer keeps every section
// of every blob 8-aligned. ParseWire validates the full CSR invariants
// (monotone RowPtr spanning the arrays, strictly increasing in-range
// ColIdx per row) before anything downstream trusts the bytes: hostile
// input cannot smuggle a malformed matrix past the fingerprint into the
// cache or the simulator.
//
// On an 8-aligned buffer (on aliasable hosts) validation and hashing
// walk the sections as aliased []uint64; a misaligned buffer takes
// byte-wise walks that give the same verdicts and the same words.
// Fingerprints are computed directly over the wire image
// (WireView.Fingerprint, the sectioned lane hash of fingerprint.go) and
// are bit-identical to CSR.Fingerprint() on the decoded struct, so a
// warm cache hit never needs to materialize the matrix at all.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrWire marks a rejected binary matrix blob: bad framing, truncated or
// oversized sections, or CSR invariant violations. Every decode failure
// wraps it, so ingest boundaries can map the whole family to one client
// error (HTTP 400) with errors.Is.
var ErrWire = errors.New("sparse: malformed binary matrix")

// Wire header constants.
const (
	wireMagic       = "MCSR"
	wireVersion     = 1
	wireHeaderBytes = 32
)

// Wire caps: a blob may not claim more rows/columns/nonzeros than this,
// independent of any transport-level body cap. 2^31-1 keeps every index
// in int32 range so the decoded struct is valid on 32-bit builds too.
const (
	MaxWireDim = 1<<31 - 1
	MaxWireNNZ = 1<<31 - 1
)

// aliasable reports whether the running platform lets the decoder point
// []int / []float64 slice headers straight into a little-endian wire
// buffer: 64-bit ints and little-endian byte order. On other platforms
// every decode copies.
var aliasable = func() bool {
	if unsafe.Sizeof(int(0)) != 8 {
		return false
	}
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// EncodedSize reports the wire size of m in bytes.
func EncodedSize(m *CSR) int {
	return wireHeaderBytes + 8*(m.Rows+1+2*m.NNZ())
}

// AppendBinary appends the wire encoding of m to dst and returns the
// extended slice. It does not validate m; encode trusted matrices or run
// Validate first.
func AppendBinary(dst []byte, m *CSR) []byte {
	need := EncodedSize(m)
	off := len(dst)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	p := dst[off:]
	copy(p[0:4], wireMagic)
	p[4] = wireVersion
	p[5], p[6], p[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(p[8:16], uint64(m.Rows))
	binary.LittleEndian.PutUint64(p[16:24], uint64(m.Cols))
	binary.LittleEndian.PutUint64(p[24:32], uint64(m.NNZ()))
	w := p[wireHeaderBytes:]
	for _, v := range m.RowPtr {
		binary.LittleEndian.PutUint64(w, uint64(v))
		w = w[8:]
	}
	for _, c := range m.ColIdx {
		binary.LittleEndian.PutUint64(w, uint64(c))
		w = w[8:]
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(w, math.Float64bits(v))
		w = w[8:]
	}
	return dst
}

// EncodeBinary returns the wire encoding of m in a fresh buffer.
func EncodeBinary(m *CSR) []byte {
	return AppendBinary(make([]byte, 0, EncodedSize(m)), m)
}

// WireView is a validated window onto one encoded matrix inside a wire
// buffer. The zero value is invalid; views come from ParseWire, which has
// already checked framing and the full CSR invariants, so every method is
// infallible. A view aliases the buffer it was parsed from and is only
// valid while that buffer is live and unmodified.
type WireView struct {
	buf        []byte // exactly one blob, header included
	rows, cols int
	nnz        int
}

// Rows, Cols and NNZ report the encoded dimensions.
func (w WireView) Rows() int { return w.rows }
func (w WireView) Cols() int { return w.cols }
func (w WireView) NNZ() int  { return w.nnz }

// EncodedLen reports the blob's length in bytes.
func (w WireView) EncodedLen() int { return len(w.buf) }

// Bytes returns the underlying blob (aliased, do not modify).
func (w WireView) Bytes() []byte { return w.buf }

// sections returns the three word sections of the blob.
func (w WireView) sections() (rowPtr, colIdx, val []byte) {
	p := w.buf[wireHeaderBytes:]
	rp := 8 * (w.rows + 1)
	ci := 8 * w.nnz
	return p[:rp], p[rp : rp+ci], p[rp+ci:]
}

// wireErr wraps a framing/validation failure in ErrWire.
func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// ParseWire validates one wire blob at the front of buf and returns a
// view over it plus the remaining bytes (blobs concatenate, so callers
// pull a sequence of matrices out of one buffer). The full CSR
// invariants are checked here, once, straight off the wire words —
// monotone RowPtr spanning the arrays, strictly increasing in-range
// column indices per row — so Decode and Fingerprint never re-validate.
func ParseWire(buf []byte) (WireView, []byte, error) {
	if len(buf) < wireHeaderBytes {
		return WireView{}, nil, wireErr("truncated header: %d bytes, want at least %d", len(buf), wireHeaderBytes)
	}
	if string(buf[0:4]) != wireMagic {
		return WireView{}, nil, wireErr("bad magic %q", buf[0:4])
	}
	if buf[4] != wireVersion {
		return WireView{}, nil, wireErr("unsupported version %d (this build speaks version %d)", buf[4], wireVersion)
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return WireView{}, nil, wireErr("nonzero reserved header bytes")
	}
	rows := binary.LittleEndian.Uint64(buf[8:16])
	cols := binary.LittleEndian.Uint64(buf[16:24])
	nnz := binary.LittleEndian.Uint64(buf[24:32])
	if rows > MaxWireDim || cols > MaxWireDim {
		return WireView{}, nil, wireErr("dimensions %dx%d exceed the %d cap", rows, cols, uint64(MaxWireDim))
	}
	if nnz > MaxWireNNZ {
		return WireView{}, nil, wireErr("nnz %d exceeds the %d cap", nnz, uint64(MaxWireNNZ))
	}
	if rows > 0 && cols > 0 && nnz > rows*cols {
		return WireView{}, nil, wireErr("nnz %d exceeds %dx%d capacity", nnz, rows, cols)
	}
	if (rows == 0 || cols == 0) && nnz != 0 {
		return WireView{}, nil, wireErr("%d nonzeros in an empty %dx%d shape", nnz, rows, cols)
	}
	// uint64 arithmetic cannot overflow here: rows, nnz < 2^31.
	need := uint64(wireHeaderBytes) + 8*(rows+1+2*nnz)
	if uint64(len(buf)) < need {
		return WireView{}, nil, wireErr("truncated body: %d bytes, header declares %d", len(buf), need)
	}
	v := WireView{buf: buf[:need], rows: int(rows), cols: int(cols), nnz: int(nnz)}
	rp, ci, _ := v.sections()
	var err error
	if v.aligned() {
		err = validateWords(aliasWords(rp), aliasWords(ci), cols, nnz)
	} else {
		err = validateBytes(rp, ci, cols, nnz)
	}
	if err != nil {
		return WireView{}, nil, err
	}
	return v, buf[need:], nil
}

// validateWords checks the CSR invariants over aliased RowPtr and ColIdx
// sections: RowPtr starts at 0, never decreases and ends exactly at nnz;
// within each row the columns are strictly increasing and below cols.
func validateWords(rp, ci []uint64, cols, nnz uint64) error {
	if rp[0] != 0 {
		return wireErr("RowPtr[0] = %d, want 0", rp[0])
	}
	prev := uint64(0)
	for r, p := range rp[1:] {
		if p < prev || p > nnz {
			return wireErr("RowPtr not monotone in [0, nnz] at row %d", r+1)
		}
		prev = p
	}
	if prev != nnz {
		return wireErr("RowPtr[rows] = %d, want nnz %d", prev, nnz)
	}
	lo := uint64(0)
	for r, hi := range rp[1:] {
		next := uint64(0) // the smallest column the row may hold next
		for _, c := range ci[lo:hi] {
			if c < next || c >= cols {
				return columnErr(c, cols, r)
			}
			next = c + 1
		}
		lo = hi
	}
	return nil
}

// validateBytes is validateWords reading little-endian words from
// sections at any alignment.
func validateBytes(rp, ci []byte, cols, nnz uint64) error {
	le := binary.LittleEndian
	if got := le.Uint64(rp); got != 0 {
		return wireErr("RowPtr[0] = %d, want 0", got)
	}
	prev := uint64(0)
	for off := 8; off < len(rp); off += 8 {
		p := le.Uint64(rp[off:])
		if p < prev || p > nnz {
			return wireErr("RowPtr not monotone in [0, nnz] at row %d", off/8)
		}
		prev = p
	}
	if prev != nnz {
		return wireErr("RowPtr[rows] = %d, want nnz %d", prev, nnz)
	}
	lo := uint64(0)
	for r := 0; 8*(r+1) < len(rp); r++ {
		hi := le.Uint64(rp[8*(r+1):])
		next := uint64(0)
		for i := lo; i < hi; i++ {
			c := le.Uint64(ci[8*i:])
			if c < next || c >= cols {
				return columnErr(c, cols, r)
			}
			next = c + 1
		}
		lo = hi
	}
	return nil
}

// columnErr reports why column c cannot follow its row's previous
// column.
func columnErr(c, cols uint64, row int) error {
	if c >= cols {
		return wireErr("column %d out of range in row %d", c, row)
	}
	return wireErr("columns not strictly increasing in row %d", row)
}

// Fingerprint hashes the matrix content straight off the wire words,
// without materializing a CSR. The dimensions and the RowPtr, ColIdx and
// Val-bit sections are exactly what CSR.Fingerprint hashes, so the
// results are identical: the analysis cache can be probed from the raw
// request bytes, and a warm hit never decodes.
func (w WireView) Fingerprint() Fingerprint {
	rp, ci, va := w.sections()
	al := w.aligned()
	return combine(w.rows, w.cols,
		hashWireSection(tagRowPtr, rp, al),
		hashWireSection(tagColIdx, ci, al),
		hashWireSection(tagVal, va, al))
}

// aligned reports whether the blob's word sections can be aliased
// directly (the buffer start is 8-aligned; every section offset is a
// multiple of 8, so one check covers all three).
func (w WireView) aligned() bool {
	if !aliasable {
		return false
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(w.buf)))%8 == 0
}

// aliasInts reinterprets an 8-aligned little-endian word section as
// []int without copying.
func aliasInts(b []byte, n int) []int {
	if n == 0 {
		return []int{}
	}
	return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// aliasFloats is aliasInts for the value section.
func aliasFloats(b []byte, n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// aliasWords is aliasInts for validation and hashing, which read raw
// words.
func aliasWords(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// growInts returns s resized to n, reusing capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// DecodeInto materializes the view into dst, reusing dst's capacity, and
// returns dst. On an aligned little-endian buffer the slice headers alias
// the wire bytes and nothing is copied or allocated — the steady-state
// serving path is 0 allocs/op (pinned by TestDecodeBinarySteadyStateZeroAllocs).
// Misaligned or foreign-endian buffers are copied once into dst's arrays,
// which act as the caller's pooled arena. Either way the result is only
// valid while the wire buffer (alias mode) or dst (copy mode) is live.
func (w WireView) DecodeInto(dst *CSR) *CSR {
	dst.Rows, dst.Cols = w.rows, w.cols
	rp, ci, va := w.sections()
	if w.aligned() {
		dst.RowPtr = aliasInts(rp, w.rows+1)
		dst.ColIdx = aliasInts(ci, w.nnz)
		dst.Val = aliasFloats(va, w.nnz)
		return dst
	}
	dst.RowPtr = growInts(dst.RowPtr, w.rows+1)
	dst.ColIdx = growInts(dst.ColIdx, w.nnz)
	dst.Val = growFloats(dst.Val, w.nnz)
	copyWireInts(dst.RowPtr, rp)
	copyWireInts(dst.ColIdx, ci)
	for i := range dst.Val {
		dst.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(va[8*i:]))
	}
	return dst
}

func copyWireInts(dst []int, src []byte) {
	for i := range dst {
		dst[i] = int(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Decode materializes the view into a fresh CSR struct (aliasing the
// wire buffer where alignment allows, see DecodeInto).
func (w WireView) Decode() *CSR {
	return w.DecodeInto(new(CSR))
}

// DecodeCopy materializes the view into freshly allocated arrays that
// share nothing with the wire buffer — for results that outlive the
// request (background verification jobs, caches of decoded matrices).
func (w WireView) DecodeCopy() *CSR {
	m := &CSR{
		Rows:   w.rows,
		Cols:   w.cols,
		RowPtr: make([]int, w.rows+1),
		ColIdx: make([]int, w.nnz),
		Val:    make([]float64, w.nnz),
	}
	rp, ci, va := w.sections()
	copyWireInts(m.RowPtr, rp)
	copyWireInts(m.ColIdx, ci)
	for i := range m.Val {
		m.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(va[8*i:]))
	}
	return m
}

// DecodeBinary validates and materializes exactly one wire blob
// (trailing bytes are an error). The returned CSR aliases buf where
// alignment allows; use WireView.DecodeCopy for an independent copy.
func DecodeBinary(buf []byte) (*CSR, error) {
	v, rest, err := ParseWire(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, wireErr("%d trailing bytes after the encoded matrix", len(rest))
	}
	return v.Decode(), nil
}

// DecodeBinaryInto is DecodeBinary decoding into dst (see
// WireView.DecodeInto for the alias/copy and lifetime rules).
func DecodeBinaryInto(dst *CSR, buf []byte) (*CSR, error) {
	v, rest, err := ParseWire(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, wireErr("%d trailing bytes after the encoded matrix", len(rest))
	}
	return v.DecodeInto(dst), nil
}
