package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"misam"
)

var (
	testFW   *misam.Framework
	testOnce sync.Once
	testErr  error
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	testOnce.Do(func() {
		testFW, testErr = misam.Train(misam.TrainOptions{CorpusSize: 80, MaxDim: 384, Seed: 5})
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	srv := httptest.NewServer(New(testFW).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDesignsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var designs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&designs); err != nil {
		t.Fatal(err)
	}
	if len(designs) != 4 {
		t.Fatalf("got %d designs, want 4", len(designs))
	}
	if designs[0]["name"] != "Design 1" || designs[3]["compressed_b"] != true {
		t.Errorf("design payload wrong: %v", designs)
	}
}

func postAnalyze(t *testing.T, srv *httptest.Server, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
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

func TestAnalyzeWithSpecs(t *testing.T) {
	srv := testServer(t)
	resp, out := postAnalyze(t, srv, map[string]any{
		"a_spec": "powerlaw:3000:12000",
		"b_spec": "dense:32",
		"seed":   7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["design"] == "" {
		t.Error("missing design in response")
	}
	if out["simulated_ms"].(float64) <= 0 {
		t.Error("missing simulated latency")
	}
	if out["cpu_ms"].(float64) <= 0 || out["gpu_ms"].(float64) <= 0 {
		t.Error("missing baseline estimates")
	}
}

func TestAnalyzeWithMatrixMarket(t *testing.T) {
	srv := testServer(t)
	const mtx = `%%MatrixMarket matrix coordinate real general
3 3 3
1 1 1.0
2 2 2.0
3 3 3.0
`
	resp, out := postAnalyze(t, srv, map[string]any{
		"a_mtx":  mtx,
		"b_spec": "dense:8",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	srv := testServer(t)
	cases := []map[string]any{
		{},                                   // no operands
		{"a_spec": "nonsense:1:2"},           // bad generator
		{"a_spec": "uniform:10:10:0.5"},      // missing B
		{"a_spec": "self", "b_spec": "self"}, // self for A
		{"a_spec": "uniform:10:10:0.5", "b_spec": "uniform:11:10:0.5"}, // mismatch
		{"a_mtx": "garbage", "b_spec": "dense:8"},
		{"a_spec": "uniform:10:10:0.5", "a_mtx": "x", "b_spec": "dense:8"}, // both forms
	}
	for i, c := range cases {
		resp, out := postAnalyze(t, srv, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%v), want 400", i, resp.StatusCode, out)
		}
		if out["error"] == "" {
			t.Errorf("case %d: missing error message", i)
		}
	}
}

func TestAnalyzeRejectsBadJSON(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestAnalyzeConcurrentRequests(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			raw, _ := json.Marshal(map[string]any{
				"a_spec": "uniform:500:500:0.01",
				"b_spec": "dense:16",
				"seed":   g,
			})
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()
}

func trainedFW(t *testing.T) *misam.Framework {
	t.Helper()
	testOnce.Do(func() {
		testFW, testErr = misam.Train(misam.TrainOptions{CorpusSize: 80, MaxDim: 384, Seed: 5})
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testFW
}

// TestTwoDeviceConcurrentProgress is the acceptance gate for dropping the
// global analyze mutex: on a 2-device fleet, two in-flight requests hold
// their devices at the same time. The onAcquire hook forms a 2-party
// barrier — if requests were serialized server-wide, the second request
// could never reach the hook while the first is parked in it, and the
// barrier would time out.
func TestTwoDeviceConcurrentProgress(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{Devices: 2})
	barrier := make(chan string, 2)
	proceed := make(chan struct{})
	s.onAcquire = func(dev *misam.Accelerator) {
		barrier <- dev.Name()
		<-proceed
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			raw, _ := json.Marshal(map[string]any{
				"a_spec": "uniform:400:400:0.01", "b_spec": "dense:16", "seed": g,
			})
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errc <- nil
		}(g)
	}

	names := map[string]bool{}
	for i := 0; i < 2; i++ {
		select {
		case n := <-barrier:
			names[n] = true
		case <-time.After(10 * time.Second):
			t.Fatal("second request never acquired a device: requests are serialized server-wide")
		}
	}
	if len(names) != 2 {
		t.Fatalf("both requests landed on one device: %v", names)
	}
	close(proceed)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnalyzeBatch(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{Devices: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	raw, _ := json.Marshal(map[string]any{
		"items": []map[string]any{
			{"a_spec": "uniform:400:400:0.01", "b_spec": "dense:16", "seed": 1},
			{"a_spec": "powerlaw:1000:5000", "b_spec": "dense:8", "seed": 2},
			{"a_spec": "nonsense:1"}, // per-item failure must not sink the batch
		},
	})
	resp, err := http.Post(srv.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Items []struct {
			Design string `json:"design"`
			Device string `json:"device"`
			Error  string `json:"error"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(out.Items))
	}
	for i := 0; i < 2; i++ {
		if out.Items[i].Error != "" || out.Items[i].Design == "" || out.Items[i].Device == "" {
			t.Errorf("item %d incomplete: %+v", i, out.Items[i])
		}
	}
	if out.Items[2].Error == "" {
		t.Error("bad item should carry an error")
	}
}

func TestAnalyzeBatchLimits(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{Devices: 1, MaxBatchItems: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	for _, body := range []string{
		`{"items":[]}`,
		`{"items":[{},{},{}]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/analyze/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRequestTimeout: with every device busy, a server-imposed deadline
// turns waiting requests away with 504.
func TestRequestTimeout(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{Devices: 1, RequestTimeout: 50 * time.Millisecond})
	hold := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.onAcquire = func(*misam.Accelerator) {
		once.Do(func() { close(hold); <-release })
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	first := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(map[string]any{"a_spec": "uniform:400:400:0.01", "b_spec": "dense:16"})
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-hold // the single device is now held

	raw, _ := json.Marshal(map[string]any{"a_spec": "uniform:400:400:0.01", "b_spec": "dense:16", "seed": 9})
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 when the fleet is saturated past the deadline", resp.StatusCode)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{MaxBodyBytes: 256})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	big := fmt.Sprintf(`{"a_mtx":%q,"b_spec":"dense:8"}`, strings.Repeat("x", 1024))
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestBodyTooLargeRecyclesBuffer: a 413 hands its body buffer back to
// the pool like every other read error, and the server keeps serving.
// sync.Pool gives no guarantee that a Put buffer comes back (the race
// detector drops some Puts on purpose), so the pool check retries; a
// buffer that is never returned can never come back.
func TestBodyTooLargeRecyclesBuffer(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{MaxBodyBytes: 256})
	big := strings.Repeat("x", 1024)
	recycled := false
	for try := 0; try < 50 && !recycled; try++ {
		sentinel := new(bytes.Buffer)
		bodyPool.Put(sentinel)
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(big))
		if _, herr := s.readBody(httptest.NewRecorder(), req); herr == nil || herr.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize body: got %v, want 413", herr)
		}
		recycled = bodyPool.Get().(*bytes.Buffer) == sentinel
	}
	if !recycled {
		t.Fatal("the 413 path never returned its body buffer to the pool")
	}

	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if resp, out := postAnalyze(t, srv, map[string]any{"a_spec": "uniform:64:64:0.1", "b_spec": "dense:8", "seed": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid body after a 413: status %d (%v)", resp.StatusCode, out)
	}
}

// TestSpecNNZCaps: generator specs whose estimated entry count would
// allocate unbounded memory are rejected up front.
func TestSpecNNZCaps(t *testing.T) {
	srv := testServer(t)
	cases := []map[string]any{
		{"a_spec": "dense:4194304"},                                 // 2^44 entries
		{"a_spec": "uniform:4000000:4000000:1.0", "b_spec": "self"}, // dense disguised as uniform
		{"a_spec": "banded:4000000:2000000", "b_spec": "dense:8"},   // full-band blowup
		{"a_spec": "uniform:10:10:0.5", "b_spec": "dense:4194304"},  // cap applies to B too
	}
	for i, c := range cases {
		resp, out := postAnalyze(t, srv, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%v), want 400", i, resp.StatusCode, out)
		}
	}
	// Sanity: the caps must not reject ordinary workloads (covered by the
	// happy-path tests, but pin the boundary family explicitly).
	resp, out := postAnalyze(t, srv, map[string]any{"a_spec": "banded:2000:4", "b_spec": "dense:16"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("legitimate banded spec rejected: %d %v", resp.StatusCode, out)
	}
}

// TestFleetEndpointAndHammer floods a 3-device fleet from many goroutines
// (run under -race via ci.sh) and then checks /v1/fleet: every report
// must name a real device, and the per-device request counters must sum
// to the request count — the consistency proof that each report reflects
// the bitstream state of the device that served it.
func TestFleetEndpointAndHammer(t *testing.T) {
	s := NewWithConfig(trainedFW(t), Config{Devices: 3})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	const requests = 24
	valid := map[string]bool{"fpga0": true, "fpga1": true, "fpga2": true}
	var wg sync.WaitGroup
	var mu sync.Mutex
	served := map[string]int64{}
	for g := 0; g < requests; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := map[string]any{"a_spec": "uniform:300:300:0.02", "b_spec": "dense:16", "seed": g}
			if g%3 == 0 {
				body = map[string]any{"a_spec": "powerlaw:800:4000", "b_spec": "dense:8", "seed": g}
			}
			raw, _ := json.Marshal(body)
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out struct {
				Design string `json:"design"`
				Device string `json:"device"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				return
			}
			if !valid[out.Device] {
				t.Errorf("report names unknown device %q", out.Device)
			}
			mu.Lock()
			served[out.Device]++
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet []struct {
		Name     string `json:"name"`
		Loaded   string `json:"loaded"`
		Requests int64  `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 3 {
		t.Fatalf("fleet endpoint reports %d devices, want 3", len(fleet))
	}
	var total int64
	for _, d := range fleet {
		if !valid[d.Name] {
			t.Errorf("unknown device %q in fleet stats", d.Name)
		}
		if d.Requests != served[d.Name] {
			t.Errorf("%s: fleet reports %d requests, clients saw %d", d.Name, d.Requests, served[d.Name])
		}
		if d.Requests > 0 && d.Loaded == "" {
			t.Errorf("%s served %d requests but reports no loaded bitstream", d.Name, d.Requests)
		}
		total += d.Requests
	}
	if total != requests {
		t.Errorf("fleet served %d requests in total, want %d", total, requests)
	}
}
