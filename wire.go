package misam

// Zero-copy binary ingestion. A binary request body is two concatenated
// sparse.EncodeBinary blobs (A then B); the server parses them into
// WireViews and serves them as a Request, which materializes the pair
// only as far as its stages need:
//
//   - Warm fast hit: the memo key comes straight from the wire
//     fingerprints (bit-identical to the decoded-struct fingerprints), so
//     the cached features and baseline stats answer the request without
//     decoding a single operand word.
//   - Anything else: the operands are decoded into a pooled WireScratch —
//     slice headers aliasing the request buffer on aligned little-endian
//     hosts, one copy into the scratch arenas otherwise — and the one-pass
//     fused extractor builds the entry.
//
// Lifetime rule: everything decoded through a WireScratch aliases memory
// that dies with the request (the wire buffer or the pooled arenas), so
// nothing alias-backed may outlive Serve. The one consumer that does
// outlive it — the background verify job — gets an independent
// DecodeCopy taken at offer time. Cache entries (FastEntry, Analysis),
// reports and traces are slice-free value types and safe to share.

import (
	"misam/internal/features"
	"misam/internal/sparse"
)

// WireView is a validated window onto one binary-encoded matrix (see
// sparse.ParseWire).
type WireView = sparse.WireView

// ErrWire marks rejected binary matrix bytes (sparse.ErrWire): bad
// framing, truncation, CSR invariant violations, or an operand pair
// whose dimensions do not multiply. Ingest boundaries map the whole
// family to a client error.
var ErrWire = sparse.ErrWire

// EncodeMatrixBinary renders m in the binary wire format.
func EncodeMatrixBinary(m *Matrix) []byte { return sparse.EncodeBinary(m) }

// AppendMatrixBinary appends m's wire encoding to dst — request bodies
// are built by appending operand blobs back to back.
func AppendMatrixBinary(dst []byte, m *Matrix) []byte { return sparse.AppendBinary(dst, m) }

// DecodeMatrixBinary validates and decodes one wire blob (the returned
// matrix may alias buf; see sparse.DecodeBinary).
func DecodeMatrixBinary(buf []byte) (*Matrix, error) { return sparse.DecodeBinary(buf) }

// ParseWireMatrix validates one wire blob at the front of buf, returning
// its view and the remaining bytes.
func ParseWireMatrix(buf []byte) (WireView, []byte, error) { return sparse.ParseWire(buf) }

// WireScratch is reusable decode state: CSR arenas for both operands.
// Serve keeps these in a sync.Pool, so after the first few requests at a
// given scale binary decode allocates nothing.
type WireScratch struct {
	a, b Matrix
}

// FusedScratch re-exports the one-pass extractor's scratch type.
type FusedScratch = features.FusedScratch

// DecodeA decodes a view into the scratch's A-operand arena (aliasing
// the view's buffer where alignment allows). The result shares the
// scratch's lifetime rules.
func (s *WireScratch) DecodeA(v WireView) *Matrix { return v.DecodeInto(&s.a) }

// DecodeB is DecodeA for the B-operand arena.
func (s *WireScratch) DecodeB(v WireView) *Matrix { return v.DecodeInto(&s.b) }
