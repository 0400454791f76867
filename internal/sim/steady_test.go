package sim

import (
	"context"
	"math/rand"
	"testing"

	"misam/internal/sparse"
)

func steadyPair() (*sparse.CSR, *sparse.CSR) {
	rng := rand.New(rand.NewSource(1401))
	a := sparse.Uniform(rng, 1000, 1000, 0.01)
	b := sparse.DenseRandom(rng, 1000, 64)
	return a, b
}

// TestSimulateAllSteadyStateZeroAllocs is the allocation-free guarantee:
// once a Workload's caches and scratch pools are warm, repeated full
// four-design evaluations allocate nothing. The tile-worker count is
// pinned to 1 because the goroutine fan-out itself allocates; the serial
// engine is the steady-state serving path on the single-CPU reference
// host and the one the guarantee covers.
func TestSimulateAllSteadyStateZeroAllocs(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 1 }
	defer func() { numTileWorkers = old }()

	a, b := steadyPair()
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := w.SimulateAllCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.SimulateAllCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SimulateAllCtx allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.SimulateAllPrunedCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SimulateAllPrunedCtx allocates %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.SimulateCtx(ctx, GetConfig(Design2)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SimulateCtx allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSimulateAllSteadyState measures the warm exact slow tier: one
// shared Workload, all four designs, serial tile loop. ReportAllocs pins
// the 0 allocs/op figure in benchmark output; the AllocsPerRun test above
// enforces it.
func BenchmarkSimulateAllSteadyState(b *testing.B) {
	old := numTileWorkers
	numTileWorkers = func() int { return 1 }
	defer func() { numTileWorkers = old }()

	am, bm := steadyPair()
	w, err := NewWorkload(am, bm)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.SimulateAllCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SimulateAllCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateAllPrunedSteadyState is the same workload through the
// coarse-then-exact + early-exit path; its ratio against
// BenchmarkSimulateAllSteadyState is the pruned slow tier's speedup.
func BenchmarkSimulateAllPrunedSteadyState(b *testing.B) {
	old := numTileWorkers
	numTileWorkers = func() int { return 1 }
	defer func() { numTileWorkers = old }()

	am, bm := steadyPair()
	w, err := NewWorkload(am, bm)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.SimulateAllPrunedCtx(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SimulateAllPrunedCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
