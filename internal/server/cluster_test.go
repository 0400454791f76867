package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"misam"
	"misam/internal/cluster"
	"misam/internal/reconfig"
	"misam/internal/registry"
)

// cloneFW builds an independent framework (own registry, own cache)
// carrying the shared test models, via a Save/Load round-trip.
func cloneFW(t *testing.T) *misam.Framework {
	t.Helper()
	var buf bytes.Buffer
	if err := trainedFW(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	fw, err := misam.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// publishCGRA pins deterministic decisions for equivalence runs: the
// same models priced under CGRA-mode switching, where the engine's
// verdict no longer depends on which bitstream a device happens to
// hold (misam.TestPlacementPoolMatchesFIFO uses the same regime).
func publishCGRA(t *testing.T, fw *misam.Framework) {
	t.Helper()
	cur := fw.Registry().Current()
	times := cur.Engine().Times.WithMode(reconfig.CGRA)
	times.CGRASeconds = 1e-6
	cgra := reconfig.NewEngine(cur.Engine().Predictor, times, 8.0)
	snap, err := registry.NewSnapshot(cur.Classifier(), cgra, registry.Info{
		Source: registry.SourceTrain,
		Note:   "CGRA pricing for the equivalence test",
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.Registry().Publish(snap)
}

// clusterNode is one loopback member: its server, the http plumbing,
// and enough handles to kill and resurrect it mid-test.
type clusterNode struct {
	url  string
	srv  *Server
	hs   *http.Server
	addr string
	down bool
}

func (n *clusterNode) kill(t *testing.T) {
	t.Helper()
	if n.down {
		return
	}
	if err := n.hs.Close(); err != nil {
		t.Fatal(err)
	}
	n.down = true
}

// resurrect re-listens on the node's original address — the peer URL
// other members carry — and serves the same handler again.
func (n *clusterNode) resurrect(t *testing.T) {
	t.Helper()
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ { // the closed port can linger briefly
		if l, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-listening on %s: %v", n.addr, err)
	}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() { _ = n.hs.Serve(l) }()
	n.down = false
}

// startCluster brings up n loopback members. mutate, when non-nil,
// adjusts each node's config (cluster fields are pre-filled).
func startCluster(t *testing.T, n int, syncInterval time.Duration, mutate func(i int, cfg *Config) *misam.Framework) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			CacheBytes: 32 << 20,
			Cluster: cluster.Config{
				Self:           urls[i],
				Peers:          peers,
				SyncInterval:   syncInterval,
				ForwardRetries: 1,
				ForwardTimeout: 10 * time.Second,
			},
		}
		fw := cloneFW(t)
		if mutate != nil {
			if alt := mutate(i, &cfg); alt != nil {
				fw = alt
			}
		}
		srv, err := NewClustered(fw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func(i int) { _ = hs.Serve(listeners[i]) }(i)
		nodes[i] = &clusterNode{url: urls[i], srv: srv, hs: hs, addr: listeners[i].Addr().String()}
		t.Cleanup(func() { _ = hs.Close(); srv.Close() })
	}
	return nodes
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterRoutesRepeatedOperandToOneOwner pins the tentpole routing
// property: the same operand pair sent to every member is served by one
// owner node, the non-owner forwards (counter visible in /v1/cluster),
// and the owner's cache is warm from the second request on.
func TestClusterRoutesRepeatedOperandToOneOwner(t *testing.T) {
	nodes := startCluster(t, 2, time.Hour, nil)
	req := analyzeRequest{ASpec: "uniform:96:80:0.05", BSpec: "uniform:80:64:0.08", Seed: 42}

	var owner string
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, n := range nodes {
			status, out := postJSON(t, n.url+"/v1/analyze", req)
			if status != http.StatusOK {
				t.Fatalf("analyze via %s: status %d (%v)", n.url, status, out)
			}
			node, _ := out["node"].(string)
			if owner == "" {
				owner = node
			}
			if node != owner {
				t.Fatalf("request served by %s, expected owner %s every time", node, owner)
			}
		}
	}

	var hits, misses, forwards float64
	for _, n := range nodes {
		st, ok := n.srv.fw.CacheStats()
		if !ok {
			t.Fatal("cache disabled on cluster node")
		}
		hits += float64(st.Hits)
		misses += float64(st.Misses)
		cs := n.srv.cluster.Stats()
		for _, m := range cs.Members {
			forwards += float64(m.Forwards)
		}
	}
	if misses != 1 {
		t.Errorf("cluster-wide misses = %v, want exactly 1 (one cold build)", misses)
	}
	if hits != 2*rounds-1 {
		t.Errorf("cluster-wide hits = %v, want %d", hits, 2*rounds-1)
	}
	// One member is the owner, the other forwarded every round.
	if forwards != rounds {
		t.Errorf("forwards = %v, want %d", forwards, rounds)
	}

	// The non-owner's /v1/cluster must report those forwards.
	for _, n := range nodes {
		if n.srv.cluster.Self() == owner {
			continue
		}
		cr := getJSON(t, n.url+"/v1/cluster")
		if cr["enabled"] != true {
			t.Fatalf("/v1/cluster disabled: %v", cr)
		}
		stats := cr["stats"].(map[string]any)
		members := stats["members"].([]any)
		var found bool
		for _, m := range members {
			mm := m.(map[string]any)
			if mm["node"] == owner && mm["forwards"].(float64) >= rounds {
				found = true
			}
		}
		if !found {
			t.Errorf("non-owner /v1/cluster missing forward counters: %v", members)
		}
	}
}

// TestClusterBinaryForwardedByteForByte routes a binary body through
// the non-owner and checks the owner answers it — the proxy hop neither
// decodes nor re-encodes, so the response is the owner's verbatim. Every
// answer, forwarded or local, full tier or fast path, names the owner.
func TestClusterBinaryForwardedByteForByte(t *testing.T) {
	a := misam.RandUniform(3, 120, 90, 0.06)
	b := misam.RandUniform(4, 90, 70, 0.09)
	body := misam.AppendMatrixBinary(misam.EncodeMatrixBinary(a), b)

	for _, fast := range []bool{false, true} {
		nodes := startCluster(t, 2, time.Hour, func(_ int, cfg *Config) *misam.Framework {
			// A near-zero gate answers every request from the fast path; no
			// background audit adds full-analysis builds.
			cfg.FastPath, cfg.Confidence, cfg.VerifySample = fast, 1e-9, -1
			return nil
		})
		owner, _ := nodes[0].srv.cluster.Owner(nodes[0].srv.fw.WireKey(parsePairT(t, body)))
		for _, n := range nodes {
			resp, err := http.Post(n.url+"/v1/analyze", BinaryContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fast=%v: binary analyze via %s: status %d (%v)", fast, n.url, resp.StatusCode, out)
			}
			if node, _ := out["node"].(string); node != owner {
				t.Fatalf("fast=%v: binary request via %s answered with node %q, want owner %s", fast, n.url, node, owner)
			}
			if want := map[bool]string{false: misam.PathFull, true: misam.PathFast}[fast]; out["path"] != want {
				t.Fatalf("fast=%v: path %v, want %s", fast, out["path"], want)
			}
		}
		var misses, forwards int64
		for _, n := range nodes {
			st, _ := n.srv.fw.CacheStats()
			misses += st.Misses + st.FastMisses
			for _, m := range n.srv.cluster.Stats().Members {
				forwards += m.Forwards
			}
		}
		if misses != 1 {
			t.Errorf("fast=%v: binary pair built %d times cluster-wide, want 1", fast, misses)
		}
		if forwards != 1 {
			t.Errorf("fast=%v: %d forwards, want 1 (the non-owner's)", fast, forwards)
		}
	}
}

// parsePairT parses a two-blob binary body into its views.
func parsePairT(t *testing.T, body []byte) (misam.WireView, misam.WireView) {
	t.Helper()
	va, vb, _, herr := parsePair(body)
	if herr != nil {
		t.Fatal(herr.err)
	}
	return va, vb
}

// TestClusterPeerDeathFallsBackLocally is the failure-path gate: kill
// the owner mid-stream and every request still answers 200 — served
// locally by the surviving member, with its fallback counter
// incremented and zero client-visible errors.
func TestClusterPeerDeathFallsBackLocally(t *testing.T) {
	nodes := startCluster(t, 2, time.Hour, func(i int, cfg *Config) *misam.Framework {
		cfg.Cluster.ForwardTimeout = 2 * time.Second
		return nil
	})
	req := analyzeRequest{ASpec: "powerlaw:200:1500", BSpec: "dense:48", Seed: 7}

	// Find the owner and the surviving non-owner.
	status, out := postJSON(t, nodes[0].url+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	owner := out["node"].(string)
	var ownerNode, survivor *clusterNode
	for _, n := range nodes {
		if n.srv.cluster.Self() == owner {
			ownerNode = n
		} else {
			survivor = n
		}
	}
	if ownerNode == nil || survivor == nil {
		t.Fatal("could not split owner/survivor")
	}

	ownerNode.kill(t)

	for i := 0; i < 3; i++ {
		status, out := postJSON(t, survivor.url+"/v1/analyze", req)
		if status != http.StatusOK {
			t.Fatalf("request %d after peer death: status %d (%v)", i, status, out)
		}
		if out["node"] != survivor.srv.cluster.Self() {
			t.Fatalf("request %d served by %v, want local fallback on %s", i, out["node"], survivor.url)
		}
	}

	cs := survivor.srv.cluster.Stats()
	var fallbacks, errs int64
	for _, m := range cs.Members {
		if m.Node == owner {
			fallbacks, errs = m.Fallbacks, m.ForwardErrors
			if m.Healthy {
				t.Error("dead owner still reported healthy")
			}
		}
	}
	if fallbacks < 3 {
		t.Errorf("fallbacks = %d, want >= 3", fallbacks)
	}
	if errs < 3 {
		t.Errorf("forward errors = %d, want >= 3 (retries against a dead peer)", errs)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterReplicationConvergesAndResumes drives the replication
// lifecycle: the boot models converge under Lamport stamps, an operator
// rollback propagates to the peer, and after the peer dies and returns
// the anti-entropy push converges it again.
func TestClusterReplicationConvergesAndResumes(t *testing.T) {
	nodes := startCluster(t, 2, 100*time.Millisecond, nil)

	// Boot convergence: both nodes stamp their (identical-content) boot
	// models (1, self); the higher origin wins the seq-1 tie and its push
	// mints a SourceSync version on the loser.
	var loser, winner *clusterNode
	waitFor(t, 10*time.Second, "boot sync to apply on one node", func() bool {
		for i, n := range nodes {
			for _, info := range n.srv.fw.Registry().List() {
				if info.Source == registry.SourceSync {
					loser, winner = n, nodes[1-i]
					return true
				}
			}
		}
		return false
	})
	if winner.srv.fw.Registry().Len() != 1 {
		t.Fatalf("winner registry has %d snapshots, want 1 (its own boot model)", winner.srv.fw.Registry().Len())
	}

	// Operator action propagates: roll the loser back to its boot model;
	// the rollback is a fresh local change that outranks the winner's
	// stamp, so the winner must apply a sync within an interval or two.
	before := winner.srv.fw.Registry().Len()
	resp, err := http.Post(loser.url+"/v1/models/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status %d", resp.StatusCode)
	}
	waitFor(t, 10*time.Second, "rollback to replicate to the winner", func() bool {
		return winner.srv.fw.Registry().Len() > before
	})

	// Peer death and return: while the winner is down the loser's pushes
	// fail; once it returns, the periodic push converges it again.
	winner.kill(t)
	verBytes, _, err := loser.srv.fw.SnapshotModelBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loser.srv.fw.PublishSyncedModels(verBytes, "change while peer is down"); err != nil {
		t.Fatal(err)
	}
	// Let at least one push fail against the dead peer.
	waitFor(t, 10*time.Second, "push errors against the dead peer", func() bool {
		for _, m := range loser.srv.cluster.Stats().Members {
			if m.SyncErrors > 0 {
				return true
			}
		}
		return false
	})
	count := winner.srv.fw.Registry().Len()
	winner.resurrect(t)
	waitFor(t, 10*time.Second, "sync to resume after the peer returns", func() bool {
		return winner.srv.fw.Registry().Len() > count
	})
}

// TestClusterStatsFanOut pins /v1/stats?scope=cluster: one request to
// any member returns every member's local stats.
func TestClusterStatsFanOut(t *testing.T) {
	nodes := startCluster(t, 3, time.Hour, nil)
	out := getJSON(t, nodes[0].url+"/v1/stats?scope=cluster")
	if out["scope"] != "cluster" {
		t.Fatalf("scope = %v", out["scope"])
	}
	rows := out["nodes"].([]any)
	if len(rows) != 3 {
		t.Fatalf("fan-out returned %d nodes, want 3", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		m := row.(map[string]any)
		if m["error"] != nil {
			t.Errorf("node %v errored: %v", m["node"], m["error"])
		}
		if m["stats"] == nil {
			t.Errorf("node %v returned no stats", m["node"])
		}
		seen[m["node"].(string)] = true
	}
	for _, n := range nodes {
		if !seen[n.srv.cluster.Self()] {
			t.Errorf("member %s missing from fan-out", n.url)
		}
	}
}

// TestClusteredConfigFailsFast pins the named-error contract at the
// server boundary: NewClustered surfaces malformed peer lists before
// anything starts.
func TestClusteredConfigFailsFast(t *testing.T) {
	fw := cloneFW(t)
	cases := []struct {
		peers []string
		want  error
	}{
		{[]string{"nodeb:8080"}, cluster.ErrBadPeer},
		{[]string{"http://b:1", "http://b:1"}, cluster.ErrDuplicatePeer},
		{[]string{"http://a:1"}, cluster.ErrSelfPeer},
	}
	for _, tc := range cases {
		_, err := NewClustered(fw, Config{Cluster: cluster.Config{Self: "http://a:1", Peers: tc.peers}})
		if !errors.Is(err, tc.want) {
			t.Errorf("peers %v: got %v, want %v", tc.peers, err, tc.want)
		}
	}
}

// equivalenceFields are the deterministic analyze-response fields that
// must match bit for bit between deployments. Device identity, node
// identity, wall-clock timings and reconfiguration verdicts (which
// depend on which physical device served) are excluded by design.
var equivalenceFields = []string{
	"design", "model_version", "predicted_ms", "simulated_ms",
	"pe_utilization", "energy_mj", "cpu_ms", "gpu_ms", "trapezoid_ms",
	"path", "confidence",
}

// TestClusterEquivalentToSingleNode is the acceptance gate: a 2-node
// loopback cluster serves bit-identical analyses to a single node on
// the same request stream. All deployments run the CGRA pricing regime
// so the design verdict is a pure function of the operands and models.
func TestClusterEquivalentToSingleNode(t *testing.T) {
	single := cloneFW(t)
	publishCGRA(t, single)
	srvSingle, err := NewClustered(single, Config{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvSingle.Close)
	hsSingle := newLocalServer(t, srvSingle)

	nodes := startCluster(t, 2, time.Hour, func(i int, cfg *Config) *misam.Framework {
		fw := cloneFW(t)
		publishCGRA(t, fw)
		return fw
	})

	stream := []analyzeRequest{
		{ASpec: "uniform:100:80:0.06", BSpec: "uniform:80:60:0.1", Seed: 1},
		{ASpec: "powerlaw:180:1200", BSpec: "dense:40", Seed: 2},
		{ASpec: "banded:150:4", BSpec: "self", Seed: 3},
		{ASpec: "uniform:100:80:0.06", BSpec: "uniform:80:60:0.1", Seed: 1}, // repeat of #0
		{ASpec: "uniform:64:64:0.2", BSpec: "uniform:64:64:0.15", Seed: 4},
		{ASpec: "powerlaw:180:1200", BSpec: "dense:40", Seed: 2}, // repeat of #1
	}
	for i, req := range stream {
		status, want := postJSON(t, hsSingle+"/v1/analyze", req)
		if status != http.StatusOK {
			t.Fatalf("single node request %d: status %d", i, status)
		}
		// Alternate which member the client hits — routing must make the
		// entry point irrelevant.
		entry := nodes[i%len(nodes)]
		status, got := postJSON(t, entry.url+"/v1/analyze", req)
		if status != http.StatusOK {
			t.Fatalf("cluster request %d: status %d", i, status)
		}
		for _, f := range equivalenceFields {
			if fmt.Sprintf("%v", got[f]) != fmt.Sprintf("%v", want[f]) {
				t.Errorf("request %d field %q: cluster %v, single %v", i, f, got[f], want[f])
			}
		}
	}
}

// newLocalServer serves s on a loopback listener and returns its URL.
func newLocalServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(l) }()
	t.Cleanup(func() { _ = hs.Close() })
	return "http://" + l.Addr().String()
}
