package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"misam"
)

// binBody concatenates the operands' wire encodings — the binary
// /v1/analyze body for one pair, or a batch body for several.
func binBody(ms ...*misam.Matrix) []byte {
	var buf []byte
	for _, m := range ms {
		buf = misam.AppendMatrixBinary(buf, m)
	}
	return buf
}

func postBinary(t *testing.T, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, BinaryContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestBinaryAnalyzeMatchesJSON: the binary format is a pure transport —
// the same operands ingested both ways produce identical analysis
// responses. Generator specs are deterministic, so the client-side
// encoding of the same (seed, params) matrices is the exact operand set
// the JSON request resolves server-side.
func TestBinaryAnalyzeMatchesJSON(t *testing.T) {
	srvJSON := testServer(t)
	srvBin := testServer(t) // fresh fleet: same initial bitstream state

	resp, want := postAnalyze(t, srvJSON, map[string]any{
		"a_spec": "uniform:300:300:0.02",
		"b_spec": "uniform:300:200:0.04",
		"seed":   7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON analyze status %d: %v", resp.StatusCode, want)
	}

	a := misam.RandUniform(7, 300, 300, 0.02)
	b := misam.RandUniform(8, 300, 200, 0.04) // server uses seed+1 for B
	bresp, got := postBinary(t, srvBin.URL+"/v1/analyze", binBody(a, b))
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary analyze status %d: %v", bresp.StatusCode, got)
	}

	// Every deterministic field must agree; wall-clock timings may not.
	for _, k := range []string{"design", "model_version", "reconfigured",
		"simulated_ms", "pe_utilization", "energy_mj", "cpu_ms", "gpu_ms", "trapezoid_ms"} {
		if want[k] != got[k] {
			t.Errorf("%s: JSON %v != binary %v", k, want[k], got[k])
		}
	}
}

// TestBinaryAnalyzeFastPath: binary ingestion through the zero-copy
// two-tier pipeline — repeated requests go warm (answered from the wire
// fingerprint) and keep returning the same design.
func TestBinaryAnalyzeFastPath(t *testing.T) {
	fw, err := misam.Train(misam.TrainOptions{CorpusSize: 80, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(fw, Config{FastPath: true, Confidence: 0.5, CacheBytes: 8 << 20})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	a := misam.RandUniform(11, 400, 400, 0.02)
	b := misam.RandUniform(12, 400, 128, 0.05)
	body := binBody(a, b)

	first := ""
	for i := 0; i < 3; i++ {
		resp, out := postBinary(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, resp.StatusCode, out)
		}
		design, _ := out["design"].(string)
		if design == "" {
			t.Fatalf("request %d: no design: %v", i, out)
		}
		if i == 0 {
			first = design
		} else if design != first {
			t.Fatalf("request %d: design %q != first %q", i, design, first)
		}
		if path, _ := out["path"].(string); path != "fast" && path != "full" {
			t.Fatalf("request %d: path %q", i, path)
		}
	}

	cs, ok := fw.CacheStats()
	if !ok || cs.FastHits < 2 {
		t.Fatalf("repeat binary requests did not hit the fast entries: %+v", cs)
	}
}

// TestBinaryBatch: a batch body is 2×N concatenated blobs; every item
// gets its own result.
func TestBinaryBatch(t *testing.T) {
	srv := testServer(t)
	a1 := misam.RandUniform(1, 200, 200, 0.03)
	b1 := misam.RandUniform(2, 200, 100, 0.05)
	a2 := misam.RandUniform(3, 150, 180, 0.04)
	b2 := misam.RandUniform(4, 180, 90, 0.06)
	resp, err := http.Post(srv.URL+"/v1/analyze/batch", BinaryContentType,
		bytes.NewReader(binBody(a1, b1, a2, b2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Items []struct {
			Design string `json:"design"`
			Error  string `json:"error"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Error != "" || it.Design == "" {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
}

// TestBinaryRejectsMalformed: framing violations at the ingest boundary
// are client errors, never 500s.
func TestBinaryRejectsMalformed(t *testing.T) {
	srv := testServer(t)
	a := misam.RandUniform(1, 60, 60, 0.1)
	b := misam.RandUniform(2, 60, 40, 0.1)
	good := binBody(a, b)

	cases := map[string][]byte{
		"empty body":         {},
		"one blob only":      binBody(a),
		"truncated":          good[:len(good)-9],
		"trailing garbage":   append(append([]byte{}, good...), 0xEE),
		"corrupt magic":      append([]byte{'X'}, good[1:]...),
		"dimension mismatch": binBody(a, misam.RandUniform(3, 77, 40, 0.1)),
	}
	for name, body := range cases {
		resp, out := postBinary(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", name, resp.StatusCode, out)
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("%s: no error message", name)
		}
	}

	// Batch: a malformed pair mid-body names the failing item.
	resp, out := postBinary(t, srv.URL+"/v1/analyze/batch", append(append([]byte{}, good...), good[:40]...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch: status %d (%v)", resp.StatusCode, out)
	}
}

// TestInvalidMatrixMarketRejected: the JSON ingest boundary
// invariant-checks parsed documents and answers 400 with the named
// error, not a panic or a 500 from deep inside the pipeline.
func TestInvalidMatrixMarketRejected(t *testing.T) {
	srv := testServer(t)
	// Entry (4,4) is out of range for the declared 3x3 shape. (Duplicate
	// entries are coalesced by Normalize before validation, so the
	// violations that reach the boundary are range violations.)
	const mtx = `%%MatrixMarket matrix coordinate real general
3 3 3
1 1 1.0
2 2 2.0
4 4 3.0
`
	resp, out := postAnalyze(t, srv, map[string]any{"a_mtx": mtx, "b_spec": "dense:8"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%v)", resp.StatusCode, out)
	}
}

// nullResponseWriter is a no-op sink for encode benchmarks.
type nullResponseWriter struct{ h http.Header }

func (n *nullResponseWriter) Header() http.Header         { return n.h }
func (n *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullResponseWriter) WriteHeader(int)             {}

// BenchmarkWriteJSONPooled pins the pooled response encoding: steady
// state allocates only what encoding/json itself needs per value, with
// no per-request buffer or encoder allocations on top.
func BenchmarkWriteJSONPooled(b *testing.B) {
	resp := buildResponse(misam.Report{}, "")
	w := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, resp)
	}
}
