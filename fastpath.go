package misam

// Confidence-gated two-tier serving (the paper's §3/§5.3 thesis taken
// seriously): the decision tree was trained to *replace* the expensive
// oracle, so the serving hot path should run the tree, not the
// simulator. With WithFastPath, Serve's gate stage answers tier 1 —
// features, compiled-tree proposal, and a Decision priced entirely from
// the snapshot's latency regressors — whenever the selector leaf is
// confident enough. Requests the model is unsure about, plus a
// deterministic 1-in-N audit sample, fall through to tier 2, the
// simulating full tier. A bounded background verifier re-simulates a
// sample of fast-path hits off the request path and feeds the labelled
// traces to the online adaptation loop, which would otherwise starve the
// moment simulation left the request path.

import (
	"context"
	"sync/atomic"

	"misam/internal/online"
	"misam/internal/sim"
)

// Report.Path values.
const (
	// PathFull marks a report produced by the simulating full tier.
	PathFull = "full"
	// PathFast marks a report served from the model alone: the chosen
	// design was priced by the latency regressors and never simulated, so
	// SimulatedSeconds, Cycles, PEUtilization and EnergyJoules are zero.
	PathFast = "fast"
)

// FastPathConfig tunes the confidence-gated tier.
type FastPathConfig struct {
	// Confidence is the gate: a request is served from the model when the
	// selector leaf's probability mass for the proposed design is at
	// least this. Values >= 1 disable the fast path entirely — every
	// request takes the full tier, bit-identical to a framework without
	// WithFastPath.
	Confidence float64
	// MinMargin additionally requires the leaf's margin over the
	// runner-up design (confidence minus the runner-up's mass). Zero
	// imposes no margin requirement.
	MinMargin float64
	// SlowEvery forces every Nth gate-passing request down the full tier
	// anyway, keeping a deterministic simulated sample of the
	// high-confidence slice on the request path. 0 disables.
	SlowEvery int
	// VerifySample offers one in N fast-path hits to the background
	// verifier for asynchronous re-simulation. 0 disables verification.
	VerifySample int
	// VerifyWorkers and VerifyQueue bound the verifier pool (defaulted
	// when <= 0).
	VerifyWorkers int
	VerifyQueue   int
}

// DefaultFastPathConfig serves at 0.9 leaf confidence and audits one in
// eight fast-path hits with two background workers.
func DefaultFastPathConfig() FastPathConfig {
	return FastPathConfig{
		Confidence:    0.9,
		VerifySample:  8,
		VerifyWorkers: 2,
		VerifyQueue:   256,
	}
}

func (c FastPathConfig) withDefaults() FastPathConfig {
	if c.VerifyWorkers <= 0 {
		c.VerifyWorkers = 2
	}
	if c.VerifyQueue <= 0 {
		c.VerifyQueue = 256
	}
	return c
}

// FastPathStats snapshot the two-tier counters. Invariants (pinned by the
// hammer test): Served == Fast + Slow, and in the verifier
// Verified + Errors + queued ≤ Offered with Offered counted only on
// fast-path hits.
type FastPathStats struct {
	// Enabled reports whether the gate can ever pass (Confidence < 1).
	Enabled bool `json:"enabled"`
	// Confidence echoes the configured gate threshold.
	Confidence float64 `json:"confidence"`
	// Served counts every request Serve accepted; Fast the ones answered
	// from the model; Slow the ones that fell through to full simulation
	// (low confidence, margin miss, SlowEvery sample, or disabled gate).
	Served int64 `json:"served"`
	Fast   int64 `json:"fast"`
	Slow   int64 `json:"slow"`
	// Verifier holds the background audit counters (zero when
	// verification is disabled).
	Verifier online.VerifierStats `json:"verifier"`
}

// fastPath is the per-framework two-tier state.
type fastPath struct {
	cfg      FastPathConfig
	verifier *online.Verifier

	served    atomic.Int64
	fast      atomic.Int64
	slow      atomic.Int64
	gateSeq   atomic.Int64 // SlowEvery sampling counter
	verifySeq atomic.Int64 // VerifySample sampling counter
}

// WithFastPath enables the confidence-gated tier, returning f for
// chaining. Enable once at setup, before serving traffic; combine with
// WithTraceCapture when the background verifier should feed the online
// adaptation loop (without a collector the verifier still maintains
// agreement counters). Call Close when done to stop the verifier pool.
func (f *Framework) WithFastPath(cfg FastPathConfig) *Framework {
	cfg = cfg.withDefaults()
	fp := &fastPath{cfg: cfg}
	if cfg.VerifySample > 0 {
		fp.verifier = online.NewVerifier(f.traces, cfg.VerifyWorkers, cfg.VerifyQueue)
	}
	f.fastpath = fp
	return f
}

// FastPathStats snapshots the two-tier counters; ok is false when
// WithFastPath was never called.
func (f *Framework) FastPathStats() (st FastPathStats, ok bool) {
	fp := f.fastpath
	if fp == nil {
		return FastPathStats{}, false
	}
	st = FastPathStats{
		Enabled:    fp.cfg.Confidence < 1,
		Confidence: fp.cfg.Confidence,
		Served:     fp.served.Load(),
		Fast:       fp.fast.Load(),
		Slow:       fp.slow.Load(),
	}
	if fp.verifier != nil {
		st.Verifier = fp.verifier.Stats()
	}
	return st, true
}

// DrainVerifier blocks until the background verifier has finished every
// accepted job, or ctx expires. A no-op without an enabled verifier —
// tests and stream-replay drivers use it to flush audit traces before
// checking drift.
func (f *Framework) DrainVerifier(ctx context.Context) error {
	fp := f.fastpath
	if fp == nil || fp.verifier == nil {
		return nil
	}
	return fp.verifier.Drain(ctx)
}

// Close stops the background verifier pool, if any. The framework
// remains usable for serving; only asynchronous verification stops
// (subsequent fast-path hits count their verify offers as drops).
func (f *Framework) Close() {
	if fp := f.fastpath; fp != nil && fp.verifier != nil {
		fp.verifier.Close()
	}
}

// maybeOfferVerify samples 1-in-VerifySample fast hits into the
// background verifier. A pair whose full Analysis is already cached is
// audited from it: the job carries the cached Results, and when it runs
// it books the cache hit (and recency) the re-analysis would have. Any
// other pair's job outlives the request, so it gets operands that own
// their memory (wire operands alias the request's buffer and pooled
// scratch) and the request's already-computed key.
func (f *Framework) maybeOfferVerify(fp *fastPath, r *Request, version uint64, v FeatureVector, proposed Design) {
	if fp.verifier == nil || fp.cfg.VerifySample <= 0 ||
		(fp.verifySeq.Add(1)-1)%int64(fp.cfg.VerifySample) != 0 {
		return
	}
	job := online.VerifyJob{Features: v, Predicted: proposed, ModelVersion: version}
	if an, ok := f.cachedAnalysis(r); ok {
		key := r.key
		job.Simulate = func(ctx context.Context) ([sim.NumDesigns]sim.Result, error) {
			if err := ctx.Err(); err != nil {
				return [sim.NumDesigns]sim.Result{}, err
			}
			f.cache.Get(key)
			return an.Results, nil
		}
	} else {
		audit := &Request{Workload: r.ownedWorkload(), key: r.key, keyed: r.keyed}
		// The audit re-simulates a pair the serving path just built; with
		// the shared tile cache attached, its schedules come from that
		// run's memoized tiles instead of being recomputed.
		f.attachTileCache(audit.Workload)
		job.Simulate = func(ctx context.Context) ([sim.NumDesigns]sim.Result, error) {
			// With a cache enabled the audit also warms the pair's full
			// Analysis for future requests.
			an, err := f.analysis(ctx, audit)
			if err != nil {
				return [sim.NumDesigns]sim.Result{}, err
			}
			return an.Results, nil
		}
	}
	fp.verifier.Offer(job)
}

// cachedAnalysis peeks at the keyed request's resident full Analysis,
// booking nothing.
func (f *Framework) cachedAnalysis(r *Request) (*Analysis, bool) {
	if f.cache == nil || !r.keyed {
		return nil, false
	}
	return f.cache.Peek(r.key)
}
