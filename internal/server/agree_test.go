package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"misam"
)

// agreeItem is one request of the differential stream in both
// transports: the JSON spec and the binary body of the same operands.
type agreeItem struct {
	spec analyzeRequest
	bin  []byte
}

// agreeStream is a seeded stream of 12 pairs drawn with repeats from
// small operand families, so every configuration sees cache misses,
// warm hits, and (at a 0.9 gate) both gate passes and gate misses.
func agreeStream(t *testing.T) []agreeItem {
	t.Helper()
	candidates := []analyzeRequest{
		{ASpec: "uniform:160:160:0.04", BSpec: "dense:8", Seed: 1},
		{ASpec: "uniform:160:160:0.04", BSpec: "dense:48", Seed: 2},
		{ASpec: "uniform:300:300:0.01", BSpec: "dense:48", Seed: 3},
		{ASpec: "powerlaw:200:2400", BSpec: "uniform:200:96:0.08", Seed: 4},
		{ASpec: "powerlaw:300:1200", BSpec: "dense:32", Seed: 5},
		{ASpec: "banded:180:4", BSpec: "self", Seed: 6},
		{ASpec: "banded:300:2", BSpec: "self", Seed: 7},
		{ASpec: "uniform:96:96:0.3", BSpec: "uniform:96:80:0.2", Seed: 8},
	}
	rng := rand.New(rand.NewSource(19))
	stream := make([]agreeItem, 12)
	for i := range stream {
		spec := candidates[rng.Intn(len(candidates))]
		wl, herr := resolveWorkload(spec)
		if herr != nil {
			t.Fatal(herr)
		}
		stream[i] = agreeItem{spec: spec, bin: binBody(wl.A, wl.B)}
	}
	return stream
}

// agreeFW is an independent copy of the shared test models, priced in
// the CGRA regime: microsecond switches make devices actually change
// bitstreams on a stream of small one-shot requests, so the answers'
// device-state fields (design, reconfigured) vary and are compared too.
func agreeFW(t *testing.T) *misam.Framework {
	fw := cloneFW(t)
	publishCGRA(t, fw)
	return fw
}

// serveAgreeStream sends the stream to h one request at a time and
// returns each answer's fields, minus the wall-clock timings.
func serveAgreeStream(t *testing.T, name string, post func(path, ctype string, body []byte) (int, []byte), stream []agreeItem, binary, batch bool) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(stream))
	for i, it := range stream {
		path, ctype, body := "/v1/analyze", "application/json", []byte(nil)
		switch {
		case binary:
			ctype, body = BinaryContentType, it.bin
		case batch:
			body, _ = json.Marshal(batchRequest{Items: []analyzeRequest{it.spec}})
		default:
			body, _ = json.Marshal(it.spec)
		}
		if batch {
			path = "/v1/analyze/batch"
		}
		status, raw := post(path, ctype, body)
		if status != http.StatusOK {
			t.Fatalf("%s request %d: status %d: %s", name, i, status, raw)
		}
		var got map[string]any
		if batch {
			var resp struct{ Items []map[string]any }
			if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Items) != 1 {
				t.Fatalf("%s request %d: batch answer %s", name, i, raw)
			}
			got = resp.Items[0]
		} else if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s request %d: %v", name, i, err)
		}
		if msg, ok := got["error"]; ok {
			t.Fatalf("%s request %d: %v", name, i, msg)
		}
		delete(got, "preprocess_ms")
		delete(got, "inference_ms")
		out[i] = got
	}
	return out
}

// agreeFields compares two answers field by field, ignoring skip.
func agreeFields(t *testing.T, name string, i int, got, want map[string]any, skip ...string) {
	t.Helper()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	for _, k := range skip {
		delete(keys, k)
	}
	for k := range keys {
		if fmt.Sprint(got[k]) != fmt.Sprint(want[k]) {
			t.Errorf("%s request %d field %q: %v, want %v", name, i, k, got[k], want[k])
		}
	}
}

// TestServeConfigurationsAgree is the differential gate behind the one
// request pipeline: one seeded stream through every serving
// configuration — cache on/off × placement on/off × fast path off / on
// at 1.0 / on at 0.9 × JSON/binary × single/batch-of-one on a 1-device
// fleet — must get the plain uncached JSON server's answer in every
// non-timing field. Fast-path answers at 0.9 agree among themselves, and
// with the plain answer in every field the tier does not change. A
// 2-node cluster's answers equal a plain server's on each owner's share
// of the stream, and name their owner.
func TestServeConfigurationsAgree(t *testing.T) {
	stream := agreeStream(t)
	local := func(cfg Config) (func(path, ctype string, body []byte) (int, []byte), func()) {
		s, err := NewClustered(agreeFW(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		return func(path, ctype string, body []byte) (int, []byte) {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", ctype)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes()
		}, s.Close
	}
	post, stop := local(Config{Devices: 1})
	plain := serveAgreeStream(t, "plain", post, stream, false, false)
	stop()

	var fastRef []map[string]any
	var fastTiers = map[string]int{}
	for _, cache := range []bool{false, true} {
		for _, placed := range []bool{false, true} {
			for _, gate := range []float64{0, 1.0, 0.9} {
				for _, binary := range []bool{false, true} {
					for _, batch := range []bool{false, true} {
						name := fmt.Sprintf("cache=%v/placement=%v/fastpath=%v/binary=%v/batch=%v", cache, placed, gate, binary, batch)
						cfg := Config{Devices: 1, Placement: placed, FastPath: gate > 0, Confidence: gate}
						if cache {
							cfg.CacheBytes = 8 << 20
						}
						post, stop := local(cfg)
						got := serveAgreeStream(t, name, post, stream, binary, batch)
						stop()
						if gate != 0.9 {
							for i := range got {
								agreeFields(t, name, i, got[i], plain[i])
							}
							continue
						}
						if fastRef == nil {
							fastRef = got
						}
						for i := range got {
							agreeFields(t, name, i, got[i], fastRef[i])
							fastTiers[fmt.Sprint(got[i]["path"])]++
							if got[i]["path"] == misam.PathFast {
								agreeFields(t, name, i, got[i], plain[i],
									"path", "confidence", "simulated_ms", "pe_utilization", "energy_mj")
							} else {
								agreeFields(t, name, i, got[i], plain[i], "confidence")
							}
						}
					}
				}
			}
		}
	}
	if fastTiers[misam.PathFast] == 0 || fastTiers[misam.PathFull] == 0 {
		t.Fatalf("the 0.9 gate split the stream %v; the stream needs both gate passes and gate misses", fastTiers)
	}

	// The cluster splits the stream between two single-device nodes, so
	// each node's device sees only the items it owns. Every answer must
	// name its ring owner and equal, field for field, a plain server's
	// answer to exactly that owner's sub-stream.
	nodes := startCluster(t, 2, time.Hour, func(int, *Config) *misam.Framework { return agreeFW(t) })
	ring := nodes[0].srv
	answers := make([]map[string]any, len(stream))
	owned := map[string][]int{}
	for i, it := range stream {
		entry := nodes[i%len(nodes)].url
		status, raw := httpPost(t, entry+"/v1/analyze", BinaryContentType, it.bin)
		if status != http.StatusOK {
			t.Fatalf("cluster request %d: status %d: %s", i, status, raw)
		}
		if err := json.Unmarshal(raw, &answers[i]); err != nil {
			t.Fatalf("cluster request %d: %v", i, err)
		}
		owner, _ := ring.cluster.Owner(ring.fw.WireKey(parsePairT(t, it.bin)))
		if answers[i]["node"] != owner {
			t.Errorf("cluster request %d: node %v, want ring owner %s", i, answers[i]["node"], owner)
		}
		owned[owner] = append(owned[owner], i)
	}
	for owner, idx := range owned {
		sub := make([]agreeItem, len(idx))
		for k, i := range idx {
			sub[k] = stream[i]
		}
		post, stop := local(Config{Devices: 1})
		want := serveAgreeStream(t, "plain "+owner, post, sub, false, false)
		stop()
		for k, i := range idx {
			agreeFields(t, "cluster", i, answers[i], want[k], "node", "preprocess_ms", "inference_ms")
		}
	}
}

// httpPost sends one request body and returns the status and raw answer.
func httpPost(t *testing.T, url, ctype string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}
