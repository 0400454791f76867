package server

// Binary ingestion for the analyze endpoints. A request with
// Content-Type application/x-misam-csr carries its operands as
// concatenated length-prefixed CSR blobs (misam.EncodeMatrixBinary):
// exactly two for /v1/analyze, 2×N pairs for /v1/analyze/batch.
// Responses stay JSON in both cases.
//
// The payoff over MatrixMarket-over-JSON is structural: the body parses
// with header reads only (validation walks integer words in place), the
// pipeline keys the request straight off the wire words, and the
// operands are decoded — aliasing the pooled request buffer on aligned
// little-endian hosts — only when a stage needs them; a warm fast-path
// hit never does. Per-request state (body buffer, CSR arenas,
// fused-extraction grids) is pooled, so a steady-state binary request
// performs no ingestion allocations.
//
// Aliasing discipline: the views, and anything decoded from them, live
// exactly as long as the request's body buffer, which returns to the
// pool only after the response is written. The one consumer that
// outlives the response — the fast path's background verify job — takes
// its own copy inside misam.Framework.Serve.

import (
	"fmt"
	"mime"
	"net/http"

	"misam"
)

// BinaryContentType negotiates binary ingestion on the analyze
// endpoints.
const BinaryContentType = "application/x-misam-csr"

// contentType reports the analyze body's format: BinaryContentType or
// JSON.
func contentType(r *http.Request) string {
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == BinaryContentType {
		return BinaryContentType
	}
	return "application/json"
}

// parsePair validates the two operand blobs at the front of body,
// returning their views and the remaining bytes.
func parsePair(body []byte) (va, vb misam.WireView, rest []byte, herr *httpError) {
	va, rest, err := misam.ParseWireMatrix(body)
	if err != nil {
		return va, vb, nil, &httpError{http.StatusBadRequest, fmt.Errorf("matrix A: %w", err)}
	}
	vb, rest, err = misam.ParseWireMatrix(rest)
	if err != nil {
		return va, vb, nil, &httpError{http.StatusBadRequest, fmt.Errorf("matrix B: %w", err)}
	}
	return va, vb, rest, nil
}

// decodeBinary is the binary half of the decode step. The whole body
// parses up front, so framing errors and batch limits are rejected
// before any device work starts; a routable item keeps its contiguous
// slice of the body, which a peer owner re-parses byte for byte.
func (s *Server) decodeBinary(body []byte, batch, routable bool) ([]item, *httpError) {
	if batch && len(body) == 0 {
		return nil, &httpError{http.StatusBadRequest, fmt.Errorf("batch has no items")}
	}
	var items []item
	for rest := body; ; {
		va, vb, next, herr := parsePair(rest)
		if herr != nil {
			if batch {
				herr.err = fmt.Errorf("item %d: %w", len(items), herr.err)
			}
			return nil, herr
		}
		var raw []byte
		if routable {
			raw = rest[:len(rest)-len(next)]
		}
		items = append(items, s.newItem(misam.Request{WireA: va, WireB: vb}, raw))
		rest = next
		switch {
		case !batch && len(rest) != 0:
			return nil, &httpError{http.StatusBadRequest,
				fmt.Errorf("%w: %d trailing bytes after two operand blobs", misam.ErrWire, len(rest))}
		case len(rest) == 0:
			return items, nil
		case len(items) == s.cfg.MaxBatchItems:
			return nil, &httpError{http.StatusBadRequest,
				fmt.Errorf("batch exceeds %d items", s.cfg.MaxBatchItems)}
		}
	}
}
