package misam

import (
	"context"
	"errors"
	"testing"
)

// encodePair renders a test pair as a binary request body (two
// concatenated blobs) and re-parses both views.
func encodePair(t testing.TB, a, b *Matrix) (WireView, WireView) {
	t.Helper()
	buf := AppendMatrixBinary(nil, a)
	buf = AppendMatrixBinary(buf, b)
	va, rest, err := ParseWireMatrix(buf)
	if err != nil {
		t.Fatalf("parse A: %v", err)
	}
	vb, rest, err := ParseWireMatrix(rest)
	if err != nil {
		t.Fatalf("parse B: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after two blobs", len(rest))
	}
	return va, vb
}

// TestAnalyzeFastWireMatchesWorkloadPath: binary ingestion must be a pure
// transport change — two identically trained frameworks, one fed decoded
// matrices and one fed wire views, both through Serve's fast path,
// produce bit-identical deterministic report fields, identical tier
// decisions, and identical baseline comparisons, across cache misses,
// hits and repeats.
func TestAnalyzeFastWireMatchesWorkloadPath(t *testing.T) {
	opts := TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5}
	byStruct, err := Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	byWire, err := Train(opts) // deterministic: identical models
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastPathConfig{Confidence: 0.5, VerifySample: 0}
	byStruct.WithCache(8 << 20).WithFastPath(cfg)
	byWire.WithCache(8 << 20).WithFastPath(cfg)
	defer byStruct.Close()
	defer byWire.Close()

	ctx := context.Background()
	for i, p := range fastTestPairs() {
		want, err := byStruct.Analyze(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		wantBase := CompareBaselines(p[0], p[1])

		va, vb := encodePair(t, p[0], p[1])
		got, err := byWire.Serve(ctx, &Request{WireA: va, WireB: vb})
		if err != nil {
			t.Fatal(err)
		}
		want.PreprocessSeconds, got.PreprocessSeconds = 0, 0
		want.InferenceSeconds, got.InferenceSeconds = 0, 0
		want.TotalSeconds, got.TotalSeconds = 0, 0
		if want != got {
			t.Fatalf("pair %d: wire and workload reports diverge:\nworkload: %+v\nwire:     %+v", i, want, got)
		}
		if got.Baseline != wantBase {
			t.Fatalf("pair %d: baselines diverge:\nworkload: %+v\nwire:     %+v", i, wantBase, got.Baseline)
		}
	}

	// Same requests, same gate, same models — the tier split and the cache
	// traffic must agree exactly.
	ss, _ := byStruct.FastPathStats()
	ws, _ := byWire.FastPathStats()
	if ss.Served != ws.Served || ss.Fast != ws.Fast || ss.Slow != ws.Slow {
		t.Fatalf("tier counters diverge: workload %+v, wire %+v", ss, ws)
	}
	sc, _ := byStruct.CacheStats()
	wc, _ := byWire.CacheStats()
	if sc.FastMisses != wc.FastMisses || sc.Entries != wc.Entries {
		t.Fatalf("cache behaviour diverged: workload %+v, wire %+v", sc, wc)
	}
}

// TestAnalyzeFastWireWarmHitSkipsDecode pins the zero-copy payoff: a warm
// fast hit is answered from the wire fingerprint alone. The probe request
// never materializes its operands, its scratch goes back to the pool,
// and the baseline comparison still arrives, priced from the cached
// stats.
func TestAnalyzeFastWireWarmHitSkipsDecode(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 90, LatencyCorpusSize: 110, MaxDim: 384, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fw.WithCache(8 << 20).WithFastPath(FastPathConfig{Confidence: 0, VerifySample: 0})
	defer fw.Close()

	a := RandUniform(3, 300, 300, 0.02)
	b := RandUniform(4, 300, 200, 0.03)
	va, vb := encodePair(t, a, b)
	ctx := context.Background()

	warmup := &Request{WireA: va, WireB: vb}
	first, err := fw.Serve(ctx, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if first.Path != PathFast {
		t.Fatalf("warmup path %q, want %q (gate at 0 always passes)", first.Path, PathFast)
	}
	if !warmup.decoded {
		t.Fatal("warmup miss did not decode its operands")
	}

	probe := &Request{WireA: va, WireB: vb}
	second, err := fw.Serve(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if second.Path != PathFast {
		t.Fatalf("warm path %q, want %q", second.Path, PathFast)
	}
	if probe.decoded {
		t.Fatal("warm hit decoded the operands")
	}
	for _, r := range []*Request{warmup, probe} {
		if r.w != nil || r.scratch != nil {
			t.Fatal("a wire request kept its decode scratch past Serve")
		}
	}
	if second.Baseline != first.Baseline {
		t.Fatalf("warm baselines diverge: first %+v, second %+v", first.Baseline, second.Baseline)
	}
	if first.Baseline.CPUSeconds <= 0 || first.Baseline.GPUSeconds <= 0 {
		t.Fatalf("baseline comparison is empty: %+v", first.Baseline)
	}
	cs, _ := fw.CacheStats()
	if cs.FastHits < 1 {
		t.Fatalf("no fast hit recorded: %+v", cs)
	}
}

// TestAnalyzeFastWireDimensionMismatch: incompatible operands are an
// ingest error (ErrWire family → client error at the server boundary),
// detected before any decode.
func TestAnalyzeFastWireDimensionMismatch(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 60, LatencyCorpusSize: 80, MaxDim: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := RandUniform(1, 50, 60, 0.1)
	b := RandUniform(2, 70, 40, 0.1) // 60 != 70
	va, vb := encodePair(t, a, b)
	req := &Request{WireA: va, WireB: vb}
	_, err = fw.Serve(context.Background(), req)
	if !errors.Is(err, ErrWire) {
		t.Fatalf("err = %v, want ErrWire", err)
	}
	if req.decoded || req.keyed {
		t.Fatal("a mismatched pair was decoded or keyed before being rejected")
	}
}

// TestWireKeyMatchesAnalysisKey: the wire-fingerprint key must be the
// exact key the decoded pair produces — in both feature flavours and for
// every operand form a Request carries — or binary and JSON traffic
// would split the cache.
func TestWireKeyMatchesAnalysisKey(t *testing.T) {
	fw, err := Train(TrainOptions{CorpusSize: 60, LatencyCorpusSize: 80, MaxDim: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := RandPowerLaw(7, 128, 128, 900, 1.5)
	b := RandUniform(8, 128, 96, 0.05)
	va, vb := encodePair(t, a, b)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, pruned := range []bool{false, true} {
		fw.Options.TopFeaturesOnly = pruned
		want := fw.AnalysisKey(a, b)
		if got := fw.WireKey(va, vb); got != want {
			t.Fatalf("pruned=%v: WireKey %+v != AnalysisKey %+v", pruned, got, want)
		}
		for _, r := range []*Request{{A: a, B: b}, {Workload: w}, {WireA: va, WireB: vb}} {
			if got := fw.RequestKey(r); got != want {
				t.Fatalf("pruned=%v: RequestKey %+v != AnalysisKey %+v", pruned, got, want)
			}
		}
	}
}
