package misam

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"misam/internal/mltree"
	"misam/internal/online"
	"misam/internal/sim"
)

// fastTestPairs generates a deterministic mixed workload, with repeats so
// cache behaviour is exercised.
func fastTestPairs() [][2]*Matrix {
	var pairs [][2]*Matrix
	for i := int64(0); i < 6; i++ {
		pairs = append(pairs, [2]*Matrix{
			RandUniform(10+i, 160+int(i)*16, 160, 0.04),
			RandDense(20+i, 160, 64),
		})
		pairs = append(pairs, [2]*Matrix{
			RandPowerLaw(30+i, 200, 200, 2400, 1.8),
			RandUniform(40+i, 200, 96, 0.08),
		})
	}
	// Repeat the first third: the second pass must hit the cache the same
	// way on both pipelines under comparison.
	pairs = append(pairs, pairs[:len(pairs)/3]...)
	return pairs
}

// TestFastPathThresholdOneBitIdentical is the tentpole's correctness bar:
// with the gate at 1.0 the two-tier pipeline must behave exactly like the
// plain pipeline — same decisions, same deterministic report fields, same
// cache traffic — over a workload with cache hits, misses and repeats.
func TestFastPathThresholdOneBitIdentical(t *testing.T) {
	opts := TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5}
	plain, err := Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := Train(opts) // deterministic: identical models
	if err != nil {
		t.Fatal(err)
	}
	plain.WithCache(8 << 20)
	gated.WithCache(8 << 20).WithFastPath(FastPathConfig{Confidence: 1.0, VerifySample: 1})
	defer gated.Close()

	ctx := context.Background()
	for i, p := range fastTestPairs() {
		want, err := plain.Analyze(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := gated.Analyze(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock fields differ run to run; everything deterministic
		// must be bit-identical.
		want.PreprocessSeconds, got.PreprocessSeconds = 0, 0
		want.InferenceSeconds, got.InferenceSeconds = 0, 0
		want.TotalSeconds, got.TotalSeconds = 0, 0
		if want != got {
			t.Fatalf("pair %d: reports diverge at threshold 1.0:\nplain: %+v\ngated: %+v", i, want, got)
		}
		if got.Path != PathFull {
			t.Fatalf("pair %d: path %q, want %q", i, got.Path, PathFull)
		}
	}

	ps, _ := plain.CacheStats()
	gs, _ := gated.CacheStats()
	if ps.Hits != gs.Hits || ps.Misses != gs.Misses || ps.Entries != gs.Entries {
		t.Fatalf("cache behaviour diverged: plain %+v, gated %+v", ps, gs)
	}
	if gs.FastHits != 0 || gs.FastMisses != 0 {
		t.Fatalf("disabled gate touched fast entries: %+v", gs)
	}
	st, ok := gated.FastPathStats()
	if !ok || st.Enabled || st.Fast != 0 || st.Served != st.Slow {
		t.Fatalf("fast-path stats at threshold 1.0 = %+v, want all-slow", st)
	}
	if st.Verifier.Offered != 0 {
		t.Fatalf("verifier offered %d jobs with the gate disabled", st.Verifier.Offered)
	}
}

// TestFastPathServesFromModel: with a permissive gate every request is
// answered from the model — no simulation fields, predicted latency in
// their place, counters all on the fast side.
func TestFastPathServesFromModel(t *testing.T) {
	gated, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gated.WithCache(8 << 20).WithFastPath(FastPathConfig{Confidence: 0.5, VerifySample: 0})
	defer gated.Close()

	ctx := context.Background()
	var fast, slow int
	for _, p := range fastTestPairs() {
		rep, err := gated.Analyze(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		switch rep.Path {
		case PathFast:
			fast++
			if rep.SimulatedSeconds != 0 || rep.Cycles != 0 || rep.PEUtilization != 0 || rep.EnergyJoules != 0 {
				t.Fatalf("fast report carries simulator fields: %+v", rep)
			}
			if rep.PredictedSeconds <= 0 {
				t.Fatalf("fast report has no predicted latency: %+v", rep)
			}
			if rep.Confidence < 0.5 {
				t.Fatalf("fast report confidence %v below the gate", rep.Confidence)
			}
			if rep.TotalSeconds < rep.PredictedSeconds {
				t.Fatalf("fast TotalSeconds %v excludes the predicted hardware time %v",
					rep.TotalSeconds, rep.PredictedSeconds)
			}
		case PathFull:
			slow++
			if rep.SimulatedSeconds <= 0 {
				t.Fatalf("full report has no simulated latency: %+v", rep)
			}
		default:
			t.Fatalf("unknown path %q", rep.Path)
		}
	}
	if fast == 0 {
		t.Fatal("no request cleared a 0.5 gate; the tree should be confident somewhere")
	}
	st, _ := gated.FastPathStats()
	if st.Served != int64(fast+slow) || st.Fast != int64(fast) || st.Slow != int64(slow) {
		t.Fatalf("counters %+v, want served=%d fast=%d slow=%d", st, fast+slow, fast, slow)
	}
	cs, _ := gated.CacheStats()
	if cs.FastMisses == 0 {
		t.Fatalf("fast path never used the features-only cache: %+v", cs)
	}
	t.Logf("coverage: %d/%d fast", fast, fast+slow)
}

// TestFastPathHighConfidenceAgreement: on the training corpus's
// high-confidence slice, the fast path's proposal must agree with the
// simulated argmin at (at least) the rate the tree's own accuracy
// predicts — the gate selects exactly the inputs the model knows well.
func TestFastPathHighConfidenceAgreement(t *testing.T) {
	fw := trainTest(t)
	snap := fw.Registry().Current()
	overall := mltree.Accuracy(fw.Selector.Tree.PredictBatch(fw.Corpus.X()), fw.Corpus.Labels())
	var n, agree int
	for _, s := range fw.Corpus.Samples {
		id, conf, _ := snap.SelectConfident(s.Features)
		if conf < 0.9 {
			continue
		}
		n++
		if id == s.Best {
			agree++
		}
	}
	if n == 0 {
		t.Fatal("no corpus sample cleared the 0.9 gate")
	}
	rate := float64(agree) / float64(n)
	t.Logf("high-confidence slice: %d/%d samples, agreement %.3f (overall accuracy %.3f)", n, len(fw.Corpus.Samples), rate, overall)
	if rate < overall-0.02 {
		t.Fatalf("high-confidence agreement %.3f is below overall accuracy %.3f — the gate is not selecting well-known inputs", rate, overall)
	}
	if rate < 0.85 {
		t.Fatalf("high-confidence agreement %.3f, want >= 0.85", rate)
	}
}

// TestFastPathVerifierFeedsOnlineLoop: fast-path hits must still produce
// labelled traces — via the background verifier — so drift detection has
// something to read.
func TestFastPathVerifierFeedsOnlineLoop(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw.WithCache(8<<20).WithTraceCapture(256, 1)
	fw.WithFastPath(FastPathConfig{Confidence: 0.5, VerifySample: 1, VerifyWorkers: 2, VerifyQueue: 64})
	defer fw.Close()

	ctx := context.Background()
	for _, p := range fastTestPairs() {
		if _, err := fw.Analyze(ctx, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := fw.DrainVerifier(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, _ := fw.FastPathStats()
	if st.Fast == 0 {
		t.Fatal("nothing served fast")
	}
	vs := st.Verifier
	if vs.Verified == 0 {
		t.Fatalf("verifier verified nothing: %+v", vs)
	}
	if vs.Verified+vs.Dropped+vs.Errors > vs.Offered || vs.Offered > st.Fast {
		t.Fatalf("verifier accounting broken: %+v with %d fast", vs, st.Fast)
	}
	if vs.Agreed > vs.Verified {
		t.Fatalf("agreed %d > verified %d", vs.Agreed, vs.Verified)
	}
	if fw.Traces().Len() == 0 {
		t.Fatal("no audit trace reached the online collector")
	}
	// The audit traces must be fully labelled (argmin + four latencies).
	for _, tr := range fw.Traces().Snapshot() {
		for id, sec := range tr.Seconds {
			if sec <= 0 {
				t.Fatalf("audit trace design %d has no simulated latency: %+v", id, tr)
			}
		}
	}
}

// TestFastPathSlowEverySampling: the deterministic 1-in-N slow-path
// sample keeps full simulation on the request path even when every
// request clears the gate.
func TestFastPathSlowEverySampling(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw.WithCache(8 << 20).WithFastPath(FastPathConfig{Confidence: 0.0, SlowEvery: 3, VerifySample: 0})
	defer fw.Close()
	ctx := context.Background()
	for _, p := range fastTestPairs() {
		if _, err := fw.Analyze(ctx, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := fw.FastPathStats()
	if st.Slow == 0 {
		t.Fatalf("SlowEvery sampled nothing: %+v", st)
	}
	if st.Fast+st.Slow != st.Served {
		t.Fatalf("served %d != fast %d + slow %d", st.Served, st.Fast, st.Slow)
	}
	// With a gate every request passes, exactly 1-in-3 gate passes are
	// diverted.
	if want := st.Served / 3; st.Slow != want {
		t.Fatalf("slow %d, want %d of %d served", st.Slow, want, st.Served)
	}
}

// wireStream encodes fastTestPairs as wire view pairs.
func wireStream(t *testing.T) [][2]WireView {
	var out [][2]WireView
	for _, p := range fastTestPairs() {
		va, vb := encodePair(t, p[0], p[1])
		out = append(out, [2]WireView{va, vb})
	}
	return out
}

// TestFastPathVerifyCachedPairMatchesResimulation: auditing a pair from
// its cached Analysis is indistinguishable from re-simulating it. Two
// identically trained frameworks serve one wire stream with repeats,
// every fast hit audited; the one without a cache copies and
// re-simulates every audited pair. Verifier counters and collected
// traces must agree, and the cached framework's memo counters must read
// what a re-analysis through the cache books: a miss for each pair's
// first audit and a hit for every repeat.
func TestFastPathVerifyCachedPairMatchesResimulation(t *testing.T) {
	opts := TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5}
	cfg := FastPathConfig{Confidence: 0, VerifySample: 1, VerifyWorkers: 1, VerifyQueue: 64}
	var fws [2]*Framework
	for i := range fws {
		fw, err := Train(opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fw.WithCache(8 << 20)
		}
		fw.WithTraceCapture(256, 1).WithFastPath(cfg)
		defer fw.Close()
		fws[i] = fw
	}
	cached, resim := fws[0], fws[1]

	ctx := context.Background()
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for i, p := range wireStream(t) {
		for _, fw := range fws {
			if _, err := fw.Serve(ctx, &Request{WireA: p[0], WireB: p[1]}); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			// One audit at a time keeps both trace orders deterministic.
			if err := fw.DrainVerifier(dctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs, _ := cached.FastPathStats()
	rs, _ := resim.FastPathStats()
	if cs != rs {
		t.Fatalf("fast-path stats diverge:\ncached: %+v\nresim:  %+v", cs, rs)
	}
	if cs.Verifier.Verified != cs.Fast {
		t.Fatalf("verified %d of %d fast hits", cs.Verifier.Verified, cs.Fast)
	}
	ct, rt := cached.Traces().Snapshot(), resim.Traces().Snapshot()
	if len(ct) != len(rt) || len(ct) == 0 {
		t.Fatalf("%d cached traces, %d re-simulated", len(ct), len(rt))
	}
	for i := range ct {
		if ct[i] != rt[i] {
			t.Fatalf("trace %d diverges:\ncached: %+v\nresim:  %+v", i, ct[i], rt[i])
		}
	}
	ms, _ := cached.CacheStats()
	if ms.Misses != ms.FastMisses || ms.Hits != ms.FastHits || ms.Hits == 0 {
		t.Fatalf("audit cache traffic %+v, want one miss per pair and one hit per repeat", ms)
	}
}

// TestFastPathVerifyCachedPairNoCopy: an offer for a pair whose Analysis
// is cached copies no operands, while an uncached pair's offer still
// does; a dropped offer books nothing in the cache either way.
func TestFastPathVerifyCachedPairNoCopy(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw.WithCache(8 << 20).WithFastPath(FastPathConfig{Confidence: 0, VerifySample: 1})
	ctx := context.Background()
	a, b := RandUniform(3, 400, 400, 0.05), RandUniform(4, 400, 300, 0.05)
	va, vb := encodePair(t, a, b)
	if _, err := fw.Serve(ctx, &Request{WireA: va, WireB: vb}); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := fw.DrainVerifier(dctx); err != nil {
		t.Fatal(err)
	}
	// With the workers stopped every offer is dropped and nothing else
	// allocates while the offers are measured.
	fw.Close()

	hot := &Request{WireA: va, WireB: vb}
	fw.RequestKey(hot)
	if _, ok := fw.cachedAnalysis(hot); !ok {
		t.Fatal("the audited pair's Analysis is not cached")
	}
	cold := &Request{}
	cold.WireA, cold.WireB = encodePair(t, RandUniform(5, 400, 400, 0.05), b)
	fw.RequestKey(cold)

	before, _ := fw.CacheStats()
	operands := uint64(va.EncodedLen() + vb.EncodedLen())
	bytesPerOffer := func(r *Request) uint64 {
		const n = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			fw.maybeOfferVerify(fw.fastpath, r, 1, FeatureVector{}, 0)
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / n
	}
	if got := bytesPerOffer(hot); got >= operands/8 {
		t.Fatalf("cached-pair offer allocates %d B, operands are %d B", got, operands)
	}
	if got := bytesPerOffer(cold); got < operands/2 {
		t.Fatalf("uncached offer allocates %d B; it must copy the %d B of operands", got, operands)
	}
	after, _ := fw.CacheStats()
	if after != before {
		t.Fatalf("dropped offers touched the cache: before %+v, after %+v", before, after)
	}
	if st, _ := fw.FastPathStats(); st.Verifier.Dropped != 40 {
		t.Fatalf("dropped %d offers, want 40", st.Verifier.Dropped)
	}
}

// TestFastPathVerifyOwnsOperands: an uncached pair's audit runs after
// Serve has returned and the request buffer has been reused, so it must
// simulate its own copy of the operands.
func TestFastPathVerifyOwnsOperands(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw.WithCache(8<<20).WithTraceCapture(16, 1)
	fw.WithFastPath(FastPathConfig{Confidence: 0, VerifySample: 1, VerifyWorkers: 1, VerifyQueue: 8})
	defer fw.Close()

	// Park the only worker so the audit cannot run before Serve returns.
	gate := make(chan struct{})
	fw.fastpath.verifier.Offer(online.VerifyJob{Simulate: func(context.Context) ([sim.NumDesigns]sim.Result, error) {
		<-gate
		return [sim.NumDesigns]sim.Result{}, errors.New("parked")
	}})

	a, b := RandPowerLaw(6, 300, 300, 3000, 1.8), RandUniform(7, 300, 128, 0.05)
	buf := AppendMatrixBinary(AppendMatrixBinary(nil, a), b)
	va, rest, err := ParseWireMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	vb, _, err := ParseWireMatrix(rest)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := fw.Serve(ctx, &Request{WireA: va, WireB: vb}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	close(gate)
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := fw.DrainVerifier(dctx); err != nil {
		t.Fatal(err)
	}

	want, err := sim.SimulateAllSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	traces := fw.Traces().Snapshot()
	if st, _ := fw.FastPathStats(); st.Verifier.Verified != 1 || len(traces) != 1 {
		t.Fatalf("verifier %+v with %d traces, want the one audit verified", st.Verifier, len(traces))
	}
	for _, id := range sim.AllDesigns {
		if traces[0].Seconds[id] != want[id].Seconds || traces[0].Cycles[id] != want[id].Cycles {
			t.Fatalf("design %d: audit simulated %v s / %d cycles, the pair takes %v s / %d cycles",
				id, traces[0].Seconds[id], traces[0].Cycles[id], want[id].Seconds, want[id].Cycles)
		}
	}
}
