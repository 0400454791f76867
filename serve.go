package misam

// The request pipeline. Every analysis — Analyze, and every item the
// HTTP server decodes, JSON or binary, single or batch — runs through
// Serve: one fixed sequence of stages over a Request value.
//
//	key      content key, computed at most once and only if a stage needs it
//	probe    analysis cache lookup
//	extract  on a miss: decode wire operands into pooled scratch, fused
//	         feature extraction (plus all four simulations when the tier
//	         keeps full analyses)
//	snapshot one registry snapshot for everything below
//	gate     confidence gate (fast path only)
//	analyze  a gate miss's full analysis, built before any device is held
//	acquire  the request's device: a fleet checkout scored by placement
//	         from this request's own features, a FIFO checkout, or a named
//	         device
//	decide   the reconfiguration engine's decide/apply transaction
//	simulate the chosen design alone, when the tier keeps no analysis
//	report   Report assembly and the baseline comparison
//
// Cache, fast path, placement and trace capture are stages that may be
// absent, never alternative call trees. Cluster routing sits in front of
// Serve in the server and reuses the request's memoized key.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"misam/internal/energy"
	"misam/internal/features"
	"misam/internal/memo"
	"misam/internal/placement"
	"misam/internal/registry"
	"misam/internal/sim"
	"misam/internal/sparse"
)

// Request is one analysis moving through Serve. Its operands stay in the
// form they arrived in — set exactly one of A and B, Workload, or WireA
// and WireB — and are materialized only by a stage that needs them.
type Request struct {
	// A and B are decoded operands.
	A, B *Matrix
	// Workload is a prebuilt simulation workload, letting callers that
	// evaluate one pair repeatedly reuse its precompute.
	Workload *Workload
	// WireA and WireB are binary-ingested views (see ParseWireMatrix). A
	// warm fast-path hit answers from their fingerprints alone; otherwise
	// they are decoded into pooled scratch that lives until Serve returns,
	// so the buffer they alias must too.
	WireA, WireB WireView

	// Fleet, when set, checks a device out for the request: the idle
	// device the placement cost model scores cheapest when Placement is
	// set, the longest-idle one otherwise. Without a fleet the request
	// runs on Device, or on the framework's default device when Device is
	// nil; Serve does not serialize a device it did not check out.
	Fleet     *Fleet
	Placement *PlacementConfig
	Device    *Accelerator
	// OnAcquire, when set, runs once the device is resolved and before
	// the decide stage.
	OnAcquire func(*Accelerator)

	key     memo.Key
	keyed   bool
	w       *Workload    // materialized operands
	scratch *WireScratch // decode arenas behind w, for wire operands
	decoded bool         // the wire operands were materialized
	an      *Analysis
	// notPre is time the extract stage spent on the simulations and the
	// baseline statistics, which PreprocessSeconds does not count.
	notPre time.Duration
}

// Analysis returns the design-independent analysis the full tier served
// the request from, or nil when it needed none (a fast-path answer, or a
// deployment that simulates only the chosen design).
func (r *Request) Analysis() *Analysis { return r.an }

// init validates the operand pair before any stage runs.
func (r *Request) init() error {
	r.an, r.decoded, r.notPre = nil, false, 0
	switch {
	case r.Workload != nil:
	case r.A != nil && r.B != nil:
		w, err := sim.NewWorkload(r.A, r.B)
		if err != nil {
			return fmt.Errorf("misam: analyze: %w", err)
		}
		r.w = w
	case r.WireA.EncodedLen() > 0 && r.WireB.EncodedLen() > 0:
		if r.WireA.Cols() != r.WireB.Rows() {
			return fmt.Errorf("%w: dimension mismatch: A is %dx%d, B is %dx%d",
				ErrWire, r.WireA.Rows(), r.WireA.Cols(), r.WireB.Rows(), r.WireB.Cols())
		}
	default:
		return errors.New("misam: analyze: request has no operand pair")
	}
	return nil
}

// wirePool recycles decode arenas across wire requests.
var wirePool = sync.Pool{New: func() any { return new(WireScratch) }}

// workload materializes the operands, decoding wire views into pooled
// scratch (aliasing the wire buffer where alignment allows) on first use.
func (r *Request) workload() *Workload {
	switch {
	case r.w != nil:
	case r.Workload != nil:
		r.w = r.Workload
	default:
		r.scratch = wirePool.Get().(*WireScratch)
		// init checked the dimensions, the only NewWorkload failure.
		r.w, _ = sim.NewWorkload(r.scratch.DecodeA(r.WireA), r.scratch.DecodeB(r.WireB))
		r.decoded = true
	}
	return r.w
}

// ownedWorkload is workload for a consumer that outlives the request:
// wire operands are copied out of the request's buffer and scratch.
func (r *Request) ownedWorkload() *Workload {
	if r.WireA.EncodedLen() == 0 {
		return r.workload()
	}
	w, _ := sim.NewWorkload(r.WireA.DecodeCopy(), r.WireB.DecodeCopy())
	return w
}

// release returns the decode arenas; nothing decoded into them may be
// used afterwards.
func (r *Request) release() {
	if r.scratch != nil {
		r.w = nil
		wirePool.Put(r.scratch)
		r.scratch = nil
	}
}

// RequestKey is the request's content key — what the analysis cache
// stores it under and what cluster routing hashes to pick its owner. It
// is computed on first use and memoized on the request, so routing and
// caching one request fingerprint its operands once.
func (f *Framework) RequestKey(r *Request) memo.Key {
	if !r.keyed {
		switch {
		case r.Workload != nil:
			r.key = contentKey(f, r.Workload.A, r.Workload.B)
		case r.A != nil:
			r.key = contentKey(f, r.A, r.B)
		default:
			r.key = contentKey(f, r.WireA, r.WireB)
		}
		r.keyed = true
	}
	return r.key
}

// prunedKeySalt separates the pruned-deployment feature flavour in the
// cache keyspace: a TopFeaturesOnly framework stores ExtractPruned
// vectors, which must never be confused with the full vectors the
// streaming path (and full-featured frameworks) cache for the same
// operand bytes.
const prunedKeySalt = 0x709c5d3a41fe9b27

// contentKey is the one place operands are fingerprinted: the content
// address of (A, B) in the framework's extraction flavour. Wire views and
// decoded matrices fingerprint identically, so both transports share
// cache entries and cluster owners.
func contentKey[M interface{ Fingerprint() sparse.Fingerprint }](f *Framework, a, b M) memo.Key {
	k := memo.PairKey(a.Fingerprint(), b.Fingerprint())
	if f.Options.TopFeaturesOnly {
		k.Hi ^= prunedKeySalt
	}
	return k
}

// AnalysisKey is the content key of a decoded operand pair.
func (f *Framework) AnalysisKey(a, b *Matrix) memo.Key { return contentKey(f, a, b) }

// WireKey is the content key of a binary-ingested pair — equal to
// AnalysisKey of the decoded operands.
func (f *Framework) WireKey(va, vb WireView) memo.Key { return contentKey(f, va, vb) }

// fusedPool recycles the fused extractor's count grids.
var fusedPool = sync.Pool{New: func() any { return new(features.FusedScratch) }}

// extract is the production feature extractor: the four pointer-offset
// features of the pruned deployment (§5.5), or the one-pass fused
// extractor over pooled scratch — bit-identical to features.Extract.
func (f *Framework) extract(w *Workload) FeatureVector {
	if f.Options.TopFeaturesOnly {
		return features.ExtractPruned(w.A, w.B)
	}
	s := fusedPool.Get().(*features.FusedScratch)
	defer fusedPool.Put(s)
	v, _ := s.Extract(w.A, w.B)
	return v
}

// keepsAnalyses reports whether the full tier derives every
// design-independent artifact (all four simulations) rather than
// simulating the chosen design alone: the cache stores them, and trace
// capture needs the argmin label.
func (f *Framework) keepsAnalyses() bool { return f.cache != nil || f.traces != nil }

// fastEntry is the key, probe and extract stages for the features-only
// artifacts. A warm probe answers without materializing an operand; a
// miss decodes and extracts once, coalesced across concurrent requests
// for the same content.
func (f *Framework) fastEntry(ctx context.Context, r *Request) (memo.FastEntry, error) {
	build := func(ctx context.Context) (memo.FastEntry, error) {
		if err := ctx.Err(); err != nil {
			return memo.FastEntry{}, err
		}
		w := r.workload()
		ent := memo.FastEntry{Features: f.extract(w)}
		t := time.Now()
		ent.Baseline = w.BaselineStats()
		r.notPre += time.Since(t)
		return ent, nil
	}
	if f.cache == nil {
		return build(ctx)
	}
	key := f.RequestKey(r)
	if ent, ok := f.cache.GetFast(key); ok {
		return ent, nil
	}
	ent, _, err := f.cache.DoFast(ctx, key, build)
	return ent, err
}

// analysis is the key, probe and extract stages for the full tier's
// Analysis: content-addressed and coalesced when a cache is enabled.
func (f *Framework) analysis(ctx context.Context, r *Request) (*Analysis, error) {
	build := func(ctx context.Context) (*Analysis, error) {
		w := r.workload()
		f.attachTileCache(w)
		an := &Analysis{Features: f.extract(w)}
		t := time.Now()
		defer func() { r.notPre += time.Since(t) }()
		var err error
		if an.Results, err = w.SimulateAllCtx(ctx); err != nil {
			return nil, err
		}
		an.Baseline = w.BaselineStats()
		return an, nil
	}
	if f.cache == nil {
		return build(ctx)
	}
	an, _, err := f.cache.Do(ctx, f.RequestKey(r), build)
	return an, err
}

// acquire resolves the request's device. A placement-scored checkout
// prices candidates with the request's own features, proposal and
// snapshot, so scoring and the decision use one model generation.
// release hands a checked-out device back.
func (f *Framework) acquire(ctx context.Context, r *Request, snap *registry.Snapshot, v FeatureVector, proposed Design) (dev *Accelerator, release func(), err error) {
	switch {
	case r.Fleet != nil && r.Placement != nil:
		dev, err = r.Fleet.AcquireScored(ctx, proposed,
			placement.NewRequest(snap.Engine(), v, proposed, r.Placement.QueueWeight))
	case r.Fleet != nil:
		dev, err = r.Fleet.Acquire(ctx)
	case r.Device != nil:
		dev = r.Device
	default:
		dev = f.device
	}
	if err != nil {
		return nil, nil, err
	}
	release = func() {}
	if fl := r.Fleet; fl != nil {
		release = func() { fl.Release(dev) }
	}
	if r.OnAcquire != nil {
		r.OnAcquire(dev)
	}
	return dev, release, nil
}

// Serve runs one request through the pipeline's stages (see the top of
// this file) and returns its report. ctx cancellation aborts a
// simulation mid-tile-pool with an error wrapping ctx.Err(); no device
// state is committed before the decide stage.
func (f *Framework) Serve(ctx context.Context, r *Request) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := r.init(); err != nil {
		return Report{}, err
	}
	defer r.release()
	fp := f.fastpath
	gated := fp != nil && fp.cfg.Confidence < 1
	if fp != nil {
		fp.served.Add(1)
		if !gated {
			// The gate can never pass: the full tier, bit-identical to a
			// framework without the fast path.
			fp.slow.Add(1)
		}
	}
	rep := Report{Path: PathFull}

	// key, probe, extract: PreprocessSeconds is their time, plus a gate
	// miss's analyze stage, less r.notPre.
	t0 := time.Now()
	var ent memo.FastEntry
	var err error
	if gated || !f.keepsAnalyses() {
		ent, err = f.fastEntry(ctx, r)
	} else if r.an, err = f.analysis(ctx, r); err == nil {
		ent = memo.FastEntry{Features: r.an.Features, Baseline: r.an.Baseline}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if gated {
			fp.slow.Add(1)
		}
		return rep, fmt.Errorf("misam: analyze: %w", err)
	}
	pre := time.Since(t0)
	v := ent.Features

	// snapshot, gate.
	snap := f.snapshot()
	t1 := time.Now()
	var proposed Design
	fast := false
	if gated {
		var margin float64
		proposed, rep.Confidence, margin = snap.SelectConfident(v)
		fast = rep.Confidence >= fp.cfg.Confidence && margin >= fp.cfg.MinMargin
		if fast && fp.cfg.SlowEvery > 0 && fp.gateSeq.Add(1)%int64(fp.cfg.SlowEvery) == 0 {
			fast = false
		}
		if fast {
			fp.fast.Add(1)
		} else {
			fp.slow.Add(1)
		}
		if fast && f.traces != nil {
			// A fast hit never simulates, so it offers no training trace —
			// but its proposal is bitstream demand the portfolio rebalancer
			// must see.
			f.traces.ObserveProposal(proposed)
		}
	} else {
		proposed = snap.Select(v)
	}
	inference := time.Since(t1)

	// analyze: a gate miss on a deployment that keeps analyses.
	if gated && !fast && f.keepsAnalyses() {
		t := time.Now()
		if r.an, err = f.analysis(ctx, r); err != nil {
			return rep, fmt.Errorf("misam: analyze: %w", err)
		}
		pre += time.Since(t)
	}
	rep.PreprocessSeconds = (pre - r.notPre).Seconds()

	// acquire, decide.
	dev, release, err := f.acquire(ctx, r, snap, v, proposed)
	if err != nil {
		return rep, err
	}
	defer release()
	t2 := time.Now()
	dec := dev.DecideApplyWith(snap.Engine(), v, proposed, 1)
	rep.InferenceSeconds = (inference + time.Since(t2)).Seconds()
	rep.Device = dev.Name()
	rep.ModelVersion = snap.Version()
	rep.Design = dec.Target
	rep.Reconfigured = dec.Reconfigure
	rep.ReconfigSec = dec.ReconfigSeconds
	rep.PredictedSeconds = snap.Engine().Predictor.Predict(v, dec.Target)
	rep.Baseline = compareStats(ent.Baseline)

	if fast {
		// No simulation runs: the predicted latency stands in for the
		// hardware time, and the simulator-only fields stay zero.
		rep.Path = PathFast
		rep.TotalSeconds = rep.PreprocessSeconds + rep.InferenceSeconds + rep.ReconfigSec + rep.PredictedSeconds
		f.maybeOfferVerify(fp, r, snap.Version(), v, proposed)
		return rep, nil
	}

	// simulate, report.
	var res sim.Result
	if r.an != nil {
		f.observeTrace(r.an, proposed, snap.Version())
		res = r.an.Results[dec.Target]
	} else {
		w := r.workload()
		f.attachTileCache(w)
		if res, err = w.SimulateCtx(ctx, sim.GetConfig(dec.Target)); err != nil {
			return rep, fmt.Errorf("misam: simulate: %w", err)
		}
	}
	rep.SimulatedSeconds = res.Seconds
	rep.PEUtilization = res.PEUtilization
	rep.Cycles = res.Cycles
	rep.EnergyJoules = energy.FPGAEnergy(res)
	rep.TotalSeconds = rep.PreprocessSeconds + rep.InferenceSeconds + rep.ReconfigSec + rep.SimulatedSeconds
	return rep, nil
}
