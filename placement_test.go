package misam

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"

	"misam/internal/features"
	"misam/internal/placement"
	"misam/internal/reconfig"
	"misam/internal/registry"
	"misam/internal/sim"
)

// cgraFramework returns a private copy of the shared test framework (own
// registry, so the snapshot it publishes reaches no other test) priced in
// CGRA mode: switching costs a microsecond and hysteresis is permissive,
// so the engine actually switches designs on small single-shot
// workloads. Under the paper's 3–4 s full-bitstream default neither pool
// would ever reconfigure and there would be nothing to compare.
func cgraFramework(t *testing.T) *Framework {
	t.Helper()
	var buf bytes.Buffer
	if err := trainTest(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	fw, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cur := fw.Registry().Current()
	times := cur.Engine().Times.WithMode(reconfig.CGRA)
	times.CGRASeconds = 1e-6
	snap, err := registry.NewSnapshot(cur.Classifier(), reconfig.NewEngine(cur.Engine().Predictor, times, 8), registry.Info{
		Source: registry.SourceTrain,
		Note:   "CGRA pricing",
	})
	if err != nil {
		t.Fatal(err)
	}
	fw.Registry().Publish(snap)
	return fw
}

// skewedStream builds 24 candidate workloads over four matrix families,
// groups them by the bitstream of the selector's proposal (designs 2 and
// 3 share one, §5.2), and samples n requests with weights 8:4:2:1 over the
// groups, most-populated group hottest — traffic concentrated on a few
// bitstreams, the case placement exists for.
func skewedStream(t *testing.T, snap *registry.Snapshot, n int) []*Workload {
	t.Helper()
	groups := make(map[sim.DesignID][]*Workload)
	for i := 0; i < 24; i++ {
		s := int64(7000 + i*17)
		d := 256 + (i*97)%256
		var a, b *Matrix
		switch i % 4 {
		case 0:
			a, b = RandUniform(s, d, d, 0.02), RandDense(s+1, d, 64)
		case 1:
			a, b = RandPowerLaw(s, d, d, d*8, 1.8), RandUniform(s+1, d, 96, 0.05)
		case 2:
			a, b = RandBanded(s, d, d, 8, 0.8), RandDense(s+1, d, 32)
		default:
			a, b = RandUniform(s, d, d, 0.004), RandUniform(s+1, d, d, 0.01)
		}
		w, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		proposed := snap.Select(features.Extract(a, b))
		for _, o := range sim.AllDesigns {
			if sim.SharedBitstream(o, proposed) {
				groups[o] = append(groups[o], w)
				break
			}
		}
	}
	if len(groups) < 2 {
		t.Fatalf("proposals span %d bitstream group(s); the stream needs >= 2", len(groups))
	}
	keys := make([]sim.DesignID, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(groups[keys[i]]) != len(groups[keys[j]]) {
			return len(groups[keys[i]]) > len(groups[keys[j]])
		}
		return keys[i] < keys[j]
	})
	weights, sum := make([]float64, len(keys)), 0.0
	for i, w := 0, 8.0; i < len(keys); i, w = i+1, w/2 {
		weights[i] = w
		sum += w
	}
	rng := rand.New(rand.NewSource(7))
	stream := make([]*Workload, n)
	for i := range stream {
		r, j := rng.Float64()*sum, 0
		for j < len(keys)-1 && r >= weights[j] {
			r -= weights[j]
			j++
		}
		g := groups[keys[j]]
		stream[i] = g[rng.Intn(len(g))]
	}
	return stream
}

// TestPlacementPoolMatchesFIFO replays one skewed CGRA-priced stream
// through a FIFO checkout pool and a placement pool of four devices. Every
// request's analysis — features, all four design Results, baselines — and
// model version must be bit-identical between the pools: placement
// changes which device pays, never the result. Placement must also avoid
// at least half of FIFO's reconfigurations and record affinity hits.
func TestPlacementPoolMatchesFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 2x96 requests through four-device fleets")
	}
	const devices, requests = 4, 96
	stream := skewedStream(t, cgraFramework(t).Registry().Current(), requests)

	type record struct {
		an      Analysis
		version uint64
	}
	run := func(placed bool) ([]record, *Fleet) {
		// Each pool gets its own framework, so every analysis is built
		// under that pool rather than shared through one cache. The cache
		// makes repeats cheap; trace capture feeds the demand EWMA the
		// rebalancer reads.
		fw := cgraFramework(t).WithCache(64<<20).WithTraceCapture(4096, 1)
		fl := fw.NewFleet(devices)
		// Both fleets start from the same one-design-per-device
		// portfolio, so Reconfigs counts in-stream switches only.
		for j, d := range fl.Devices() {
			d.ForceLoad(sim.AllDesigns[j%len(sim.AllDesigns)])
		}
		var rb *placement.Rebalancer
		if placed {
			rb = placement.NewRebalancer(fl, fw.Traces(), placement.RebalancerConfig{MinObservations: 16, UniformSlack: 0.05})
		}
		recs := make([]record, len(stream))
		for i, w := range stream {
			req := &Request{Workload: w, Fleet: fl}
			if placed {
				req.Placement = &PlacementConfig{}
			}
			rep, err := fw.Serve(context.Background(), req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if req.Analysis() == nil {
				t.Fatalf("request %d was served without an analysis", i)
			}
			recs[i] = record{*req.Analysis(), rep.ModelVersion}
			if rb != nil && (i+1)%8 == 0 {
				rb.Tick()
			}
		}
		return recs, fl
	}
	reconfigs := func(fl *Fleet) (n int64) {
		for _, d := range fl.Devices() {
			n += d.Stats().Reconfigs
		}
		return n
	}

	fifo, fifoFleet := run(false)
	placed, placedFleet := run(true)
	for i := range fifo {
		if fifo[i] != placed[i] {
			t.Fatalf("request %d: placement pool answered a different analysis:\nfifo   %+v\nplaced %+v", i, fifo[i], placed[i])
		}
	}
	fifoN, placedN := reconfigs(fifoFleet), reconfigs(placedFleet)
	t.Logf("reconfigurations: fifo %d, placed %d; placed fleet %+v", fifoN, placedN, placedFleet.Stats())
	if fifoN == 0 {
		t.Fatal("FIFO pool paid no reconfigurations; the stream is degenerate")
	}
	if avoided := float64(fifoN-placedN) / float64(fifoN); avoided < 0.5 {
		t.Errorf("placement avoided %.0f%% of FIFO's %d reconfigurations (paid %d), want >= 50%%", 100*avoided, fifoN, placedN)
	}
	if st := placedFleet.Stats(); st.AffinityHits == 0 {
		t.Errorf("placement pool recorded no affinity hits on a skewed stream: %+v", st)
	}
}
