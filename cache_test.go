package misam

import (
	"context"
	"reflect"
	"testing"

	"misam/internal/reconfig"
)

// cachedCopy returns a framework sharing fw's immutable models but with
// its own default device and an analysis cache enabled — the shared
// trainTest framework must not be mutated.
func cachedCopy(fw *Framework, deviceName string, budget int64) *Framework {
	cp := *fw
	cp.device = reconfig.NewDevice(deviceName, cp.Engine)
	return (&cp).WithCache(budget)
}

// sameDeterministicReport compares the report fields that do not depend
// on wall-clock measurement. Preprocess/Inference/Total carry timing and
// legitimately differ between a cache hit and a full build.
func sameDeterministicReport(t *testing.T, tag string, got, want Report) {
	t.Helper()
	if got.Design != want.Design {
		t.Errorf("%s: design %v, want %v", tag, got.Design, want.Design)
	}
	if got.Reconfigured != want.Reconfigured || got.ReconfigSec != want.ReconfigSec {
		t.Errorf("%s: reconfig (%v, %v), want (%v, %v)",
			tag, got.Reconfigured, got.ReconfigSec, want.Reconfigured, want.ReconfigSec)
	}
	if got.PredictedSeconds != want.PredictedSeconds {
		t.Errorf("%s: predicted %v, want %v", tag, got.PredictedSeconds, want.PredictedSeconds)
	}
	if got.SimulatedSeconds != want.SimulatedSeconds || got.Cycles != want.Cycles {
		t.Errorf("%s: simulated (%v s, %d cyc), want (%v s, %d cyc)",
			tag, got.SimulatedSeconds, got.Cycles, want.SimulatedSeconds, want.Cycles)
	}
	if got.PEUtilization != want.PEUtilization || got.EnergyJoules != want.EnergyJoules {
		t.Errorf("%s: util/energy (%v, %v), want (%v, %v)",
			tag, got.PEUtilization, got.EnergyJoules, want.PEUtilization, want.EnergyJoules)
	}
	if got.Baseline != want.Baseline {
		t.Errorf("%s: baselines %+v, want %+v", tag, got.Baseline, want.Baseline)
	}
}

// TestCacheAnalyzeBitIdentical: a warm cache hit must reproduce the
// uncached pipeline's report field for field (the acceptance gate of the
// analysis cache). The warm pass uses a separately built workload so the
// hit comes from content addressing, not pointer identity.
func TestCacheAnalyzeBitIdentical(t *testing.T) {
	fw := trainTest(t)
	cfw := cachedCopy(fw, "dev", 64<<20)

	a := RandPowerLaw(31, 2000, 2000, 16000, 1.8)
	b := RandDense(32, 2000, 24)
	ctx := context.Background()

	for pass, tag := range []string{"cold-miss", "warm-hit"} {
		// Fresh devices each pass: both pipelines price against identical
		// (empty) bitstream state, so the decisions must agree too.
		devU := fw.NewDevice("dev")
		devC := cfw.NewDevice("dev")
		wu, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fw.Serve(ctx, &Request{Workload: wu, Device: devU})
		if err != nil {
			t.Fatalf("pass %d uncached: %v", pass, err)
		}
		got, err := cfw.Serve(ctx, &Request{Workload: wc, Device: devC})
		if err != nil {
			t.Fatalf("pass %d cached: %v", pass, err)
		}
		sameDeterministicReport(t, tag, got, want)
	}

	st, ok := cfw.CacheStats()
	if !ok {
		t.Fatal("cache stats unavailable on a cached framework")
	}
	if st.Misses != 1 || st.Hits < 1 {
		t.Errorf("stats = %+v, want exactly 1 miss and >=1 hit", st)
	}
	if _, ok := fw.CacheStats(); ok {
		t.Error("uncached framework reports cache stats")
	}
}

// TestCacheStreamBitIdentical: streaming over a cached framework must
// reproduce the uncached stream exactly, and re-streaming the same
// matrix must serve every tile from the cache.
func TestCacheStreamBitIdentical(t *testing.T) {
	fw := trainTest(t)
	cold := *fw
	cold.device = reconfig.NewDevice("s", cold.Engine)
	cfw := cachedCopy(fw, "s", 64<<20)

	a := RandPowerLaw(41, 2400, 2400, 19000, 1.8)
	b := RandDense(42, 2400, 16)
	ctx := context.Background()

	want, err := (&cold).Stream(ctx, 7, a, b, 600, 900)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfw.Stream(ctx, 7, a, b, 600, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached stream diverged from the uncached stream")
	}

	// Same seed and a fresh device ⇒ identical tiling and decisions, but
	// now every tile analysis is resident.
	before, _ := cfw.CacheStats()
	cfw.device = reconfig.NewDevice("s", cfw.Engine)
	again, err := cfw.Stream(ctx, 7, a, b, 600, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("warm re-stream diverged")
	}
	after, _ := cfw.CacheStats()
	if after.Misses != before.Misses {
		t.Errorf("re-stream ran %d new builds, want 0", after.Misses-before.Misses)
	}
	if after.Hits < before.Hits+int64(len(want.Outcomes)) {
		t.Errorf("re-stream hit %d times, want >= %d", after.Hits-before.Hits, len(want.Outcomes))
	}
}

// TestCachePrunedFlavourSalted: a pruned-deployment framework must not
// share cache keys with the full-feature flavour for the same operand
// bytes — the two extraction paths produce different vectors.
func TestCachePrunedFlavourSalted(t *testing.T) {
	fw := trainTest(t)
	pruned := *fw
	pruned.Options.TopFeaturesOnly = true

	a := RandUniform(51, 300, 300, 0.05)
	b := RandDense(52, 300, 8)
	if fw.AnalysisKey(a, b) == (&pruned).AnalysisKey(a, b) {
		t.Fatal("pruned and full feature flavours share a cache key")
	}
	// Same flavour, same content: the key is stable.
	if fw.AnalysisKey(a, b) != fw.AnalysisKey(a, b) {
		t.Fatal("analysis key is not deterministic")
	}
}
