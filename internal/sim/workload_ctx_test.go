package sim

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"misam/internal/baseline"
	"misam/internal/sparse"
)

// countdownCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls — a deterministic way to cancel mid-tile-pool
// regardless of scheduling.
type countdownCtx struct {
	context.Context
	remaining int64
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.remaining, -1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

// bigTilePair returns operands whose dense tiling yields well over
// minParallelTiles tiles, so the bounded worker pool actually engages.
func bigTilePair(t *testing.T) (*sparse.CSR, *sparse.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	a := sparse.Uniform(rng, 400, 3000, 0.01)
	b := sparse.Uniform(rng, 3000, 200, 0.02)
	return a, b
}

// TestSimulateCtxCancelledBeforeStart: an already-cancelled context
// returns immediately with its error and no result.
func TestSimulateCtxCancelledBeforeStart(t *testing.T) {
	a, b := bigTilePair(t)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.SimulateCtx(ctx, GetConfig(Design1)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := w.SimulateAllCtx(ctx); err != context.Canceled {
		t.Fatalf("SimulateAllCtx err = %v, want context.Canceled", err)
	}
}

// TestSimulateCtxAbortsMidTilePool forces the parallel tile pool on and
// cancels after a handful of polls: the simulation must stop early and
// surface context.Canceled instead of a bogus Result.
func TestSimulateCtxAbortsMidTilePool(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 4 }
	defer func() { numTileWorkers = old }()

	a, b := bigTilePair(t)
	for _, id := range AllDesigns {
		cfg := GetConfig(id)
		// Shrink tiles so every design sees a long tile list.
		cfg.BRAMRowsPerTile = 64
		cfg.BRAMCapacityNNZ = 512

		w, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		full, err := w.SimulateCtx(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if full.Tiles < minParallelTiles {
			t.Fatalf("%v: only %d tiles; pool not exercised", id, full.Tiles)
		}
		// Allow the initial poll plus a few per-worker claims, then cancel:
		// the pool stops mid-list.
		ctx := &countdownCtx{Context: context.Background(), remaining: 6}
		if _, err := w.SimulateCtx(ctx, cfg); err != context.Canceled {
			t.Errorf("%v: err = %v, want context.Canceled mid-pool", id, err)
		}
	}
}

// TestSimulateCtxDeadline: a real expired deadline surfaces
// context.DeadlineExceeded through the same path.
func TestSimulateCtxDeadline(t *testing.T) {
	a, b := bigTilePair(t)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := w.SimulateCtx(ctx, GetConfig(Design1)); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSimulateCtxNilAndBackground: nil and Background contexts keep the
// historical behavior — full simulation, bit-identical to the serial
// reference.
func TestSimulateCtxNilAndBackground(t *testing.T) {
	a, b := bigTilePair(t)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SimulateAllSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := serial[Design2]
	got, err := w.SimulateCtx(context.Background(), GetConfig(Design2))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("SimulateCtx(Background) diverged from the serial reference")
	}
	got2, err := w.SimulateCtx(nil, GetConfig(Design2))
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Error("SimulateCtx(nil) diverged from the serial reference")
	}
}

// TestBaselineStatsMatchesCollect pins the serving-path optimization: the
// workload-cached stats must be value-identical to baseline.Collect.
func TestBaselineStatsMatchesCollect(t *testing.T) {
	for _, tc := range equivalencePairs(t) {
		w, err := NewWorkload(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := w.BaselineStats()
		want := baseline.Collect(tc.a, tc.b)
		if got != want {
			t.Errorf("%s: BaselineStats diverged:\ncached:  %+v\ndirect:  %+v", tc.name, got, want)
		}
	}
}
