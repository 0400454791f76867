package main

// Every call the harness makes into the repository's Go API lives in
// this file, one small function per pipeline stage, so that a refactor
// of the serving entry points breaks probes here and nowhere else. The
// root package's wrappers are preferred; internal packages are imported
// only where the root package exports no equivalent (the serial
// reference simulator, the memo and tile caches, the ring, the in-process
// server). Everything else in the harness speaks HTTP.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"

	"misam"
	"misam/internal/cluster"
	"misam/internal/memo"
	"misam/internal/server"
	"misam/internal/sim"
)

// Generators and codecs the operand pool is built from.
var (
	genPowerLaw  = misam.RandPowerLaw
	genDense     = misam.RandDense
	genDNNPruned = misam.RandDNNPruned
	genBanded    = misam.RandBanded
	genUniform   = misam.RandUniform
	appendFrame  = misam.AppendMatrixBinary
	writeMtx     = misam.WriteMatrixMarket
)

// The servers' flag defaults (cmd/misam-serve) that the in-process
// server and the harness-owned caches have to mirror.
const (
	serveDevices        = 2
	serveCacheBytes     = 256 << 20
	serveTileCacheBytes = 64 << 20
)

// rig is the harness's own copy of the serving state, against which the
// traced run re-enacts a request one stage at a time. Its caches are
// separate from any server's, so a probe never warms what a roundtrip is
// about to measure.
type rig struct {
	fw      *misam.Framework
	cache   *memo.Cache
	tiles   *sim.TileCache
	fleet   *misam.Fleet
	dev     *misam.Accelerator
	ring    *cluster.Ring // nil outside a cluster workload
	scratch misam.WireScratch
	fused   misam.FusedScratch
}

func loadModel(path string) (*misam.Framework, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return misam.Load(f)
}

func newRig(modelPath string, members []string) (*rig, error) {
	fw, err := loadModel(modelPath)
	if err != nil {
		return nil, err
	}
	r := &rig{
		fw:    fw,
		cache: memo.New(serveCacheBytes),
		tiles: sim.NewTileCache(serveTileCacheBytes),
		fleet: fw.NewFleet(serveDevices),
		dev:   fw.NewDevice("probe"),
	}
	if len(members) > 0 {
		if r.ring, err = cluster.NewRing(members, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// --- sparse: ingestion ------------------------------------------------------

func probeParse(body []byte) (va, vb misam.WireView, err error) {
	va, rest, err := misam.ParseWireMatrix(body)
	if err != nil {
		return va, vb, fmt.Errorf("matrix A: %w", err)
	}
	vb, rest, err = misam.ParseWireMatrix(rest)
	if err != nil {
		return va, vb, fmt.Errorf("matrix B: %w", err)
	}
	if len(rest) != 0 {
		return va, vb, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return va, vb, nil
}

// probeWireKey fingerprints both wire views (WireView.Fingerprint ×2).
func (r *rig) probeWireKey(va, vb misam.WireView) memo.Key { return r.fw.WireKey(va, vb) }

func (r *rig) probeDecode(va, vb misam.WireView) (a, b *misam.Matrix) {
	return r.scratch.DecodeA(va), r.scratch.DecodeB(vb)
}

func probeDecodeCopy(v misam.WireView) *misam.Matrix { return v.DecodeCopy() }

// probeFingerprint is one operand's content hash as the cache keys see it.
func probeFingerprint(v misam.WireView) [2]uint64 {
	f := v.Fingerprint()
	return [2]uint64{f.Hi, f.Lo}
}

// probeMtxParse is the JSON transport's operand load: parse, then the
// invariant check the server runs before anything walks the matrix.
func probeMtxParse(text string) (*misam.Matrix, error) {
	m, err := misam.ReadMatrixMarket(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return m, m.Validate()
}

// probeCSRKey fingerprints both decoded operands (CSR.Fingerprint ×2).
func (r *rig) probeCSRKey(a, b *misam.Matrix) memo.Key { return r.fw.AnalysisKey(a, b) }

// --- memo -------------------------------------------------------------------

func (r *rig) probeFastGet(key memo.Key) (memo.FastEntry, bool) { return r.cache.GetFast(key) }

func (r *rig) probeFastDo(ctx context.Context, key memo.Key, build func(context.Context) (memo.FastEntry, error)) (memo.FastEntry, error) {
	e, _, err := r.cache.DoFast(ctx, key, build)
	return e, err
}

func (r *rig) probeAnalysisDo(ctx context.Context, key memo.Key, build func(context.Context) (*memo.Analysis, error)) (*memo.Analysis, error) {
	an, _, err := r.cache.Do(ctx, key, build)
	return an, err
}

// --- features ---------------------------------------------------------------

func (r *rig) probeExtractFused(a, b *misam.Matrix) misam.FeatureVector {
	v, _ := r.fused.Extract(a, b)
	return v
}

func probeExtractMultipass(a, b *misam.Matrix) misam.FeatureVector {
	return misam.ExtractFeatures(a, b)
}

// --- sim, baseline ----------------------------------------------------------

func probeNewWorkload(a, b *misam.Matrix) (*misam.Workload, error) { return misam.NewWorkload(a, b) }

// probeSimulateAll is the serving path's four-design simulation, sharing
// the rig's tile cache the way a server's workloads share theirs.
func (r *rig) probeSimulateAll(ctx context.Context, w *misam.Workload) ([misam.NumDesigns]sim.Result, error) {
	w.AttachTileCache(r.tiles)
	return w.SimulateAllCtx(ctx)
}

// probeSerial is the reference every answer is checked against.
func probeSerial(a, b *misam.Matrix) ([misam.NumDesigns]sim.Result, error) {
	return sim.SimulateAllSerial(a, b)
}

func probeBaselineStats(w *misam.Workload) misam.BaselineStats { return w.BaselineStats() }

// --- registry, reconfig, fleet, cluster ------------------------------------

func (r *rig) probeSelect(v misam.FeatureVector) (d misam.Design, conf float64) {
	d, conf, _ = r.fw.Registry().Current().SelectConfident(v)
	return d, conf
}

// probeDecide runs the decide/apply transaction on the rig's device and
// returns the design that will execute.
func (r *rig) probeDecide(v misam.FeatureVector, proposed misam.Design) misam.Design {
	return r.dev.DecideApplyWith(r.fw.Registry().Current().Engine(), v, proposed, 1).Target
}

// probePredict is the latency regressor's estimate in seconds.
func (r *rig) probePredict(v misam.FeatureVector, d misam.Design) float64 {
	return r.fw.Registry().Current().Engine().Predictor.Predict(v, d)
}

// probeAcquire checks a device out of the fleet and back in.
func (r *rig) probeAcquire(ctx context.Context) error {
	return r.fleet.Do(ctx, func(*misam.Accelerator) error { return nil })
}

func (r *rig) probeOwner(key memo.Key) string { return r.ring.Owner(key) }

// probePairKey is the content key of a binary body: what the cache
// stores it under and what the ring routes it by. (A -top-features model
// salts the key; the harness never trains one.)
func probePairKey(body []byte) (memo.Key, error) {
	va, vb, err := probeParse(body)
	if err != nil {
		return memo.Key{}, err
	}
	return memo.PairKey(va.Fingerprint(), vb.Fingerprint()), nil
}

// probeOwners reports, for each key, the index of the member that owns
// it on the ring the members would build.
func probeOwners(members []string, keys []memo.Key) ([]int, error) {
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, m := range members {
		index[m] = i
	}
	owners := make([]int, len(keys))
	for i, k := range keys {
		owners[i] = index[ring.Owner(k)]
	}
	return owners, nil
}

// --- server -----------------------------------------------------------------

// newInProcessServer builds the handler a misam-serve process with the
// same flags would serve: -devices 2, default caches, optionally
// -fastpath, optionally clustered. The returned func stops its
// background work.
func newInProcessServer(modelPath string, fast bool, self string, peers []string) (http.Handler, func(), error) {
	fw, err := loadModel(modelPath)
	if err != nil {
		return nil, nil, err
	}
	cfg := server.Config{
		Devices:        serveDevices,
		CacheBytes:     serveCacheBytes,
		TileCacheBytes: serveTileCacheBytes,
		FastPath:       fast,
	}
	if self != "" {
		// -forward-retries defaults to 1; the Config's zero value means 0.
		cfg.Cluster = cluster.Config{Self: self, Peers: peers, ForwardRetries: 1}
	}
	s, err := server.NewClustered(fw, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.Handler(), s.Close, nil
}
