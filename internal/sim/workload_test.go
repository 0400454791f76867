package sim

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"misam/internal/sparse"
)

// equivalencePairs spans the workload generator families the corpus draws
// from (uniform, power-law graphs, banded scientific, pruned DNN weights,
// imbalanced, dense multi-RHS, empty, and a shared-operand square).
func equivalencePairs(t testing.TB) []struct {
	name string
	a, b *sparse.CSR
} {
	t.Helper()
	rng := rand.New(rand.NewSource(20250805))
	pl := sparse.PowerLaw(rng, 900, 900, 5400, 1.8)
	return []struct {
		name string
		a, b *sparse.CSR
	}{
		{"uniform×dense", sparse.Uniform(rng, 700, 700, 0.01), sparse.DenseRandom(rng, 700, 48)},
		{"powerlaw×uniform", pl, sparse.Uniform(rng, 900, 256, 0.08)},
		{"graph-square", pl, pl},
		{"banded×dense", sparse.Banded(rng, 600, 600, 4, 0.8), sparse.DenseRandom(rng, 600, 32)},
		{"dnn×dnn", sparse.DNNPruned(rng, 512, 384, 0.25, true, 4), sparse.DNNPruned(rng, 384, 256, 0.3, true, 4)},
		{"imbalanced×dense", sparse.Imbalanced(rng, 800, 800, 8000, 0.01, 0.9), sparse.DenseRandom(rng, 800, 16)},
		{"hs×hs", sparse.Uniform(rng, 1200, 1200, 0.002), sparse.Uniform(rng, 1200, 1200, 0.001)},
		{"empty", sparse.NewCOO(50, 50).ToCSR(), sparse.NewCOO(50, 50).ToCSR()},
	}
}

// TestSimulateAllMatchesSerial asserts the headline determinism guarantee:
// the parallel, shared-precompute engine produces bit-identical Result
// values (every field) to the serial reference path, across the generator
// families.
func TestSimulateAllMatchesSerial(t *testing.T) {
	old := numTileWorkers
	defer func() { numTileWorkers = old }()
	for _, tc := range equivalencePairs(t) {
		serial, err := SimulateAllSerial(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		// Both SimulateAllCtx branches — sequential designs (single
		// processor) and goroutine fan-out — must match the reference.
		for _, workers := range []int{1, 4} {
			numTileWorkers = func() int { return workers }
			parallel, err := simulateAll(tc.a, tc.b)
			if err != nil {
				t.Fatalf("%s: parallel (workers=%d): %v", tc.name, workers, err)
			}
			if serial != parallel {
				t.Errorf("%s (workers=%d): SimulateAllCtx diverged from serial reference:\nserial:   %+v\nparallel: %+v",
					tc.name, workers, serial, parallel)
			}
		}
		numTileWorkers = old
		// A fresh workload per design must agree too.
		for _, id := range AllDesigns {
			r, err := simulateDesign(id, tc.a, tc.b)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, id, err)
			}
			if r != serial[id] {
				t.Errorf("%s/%v: single-design simulation diverged from serial reference", tc.name, id)
			}
		}
	}
}

// TestParallelTileLoopMatchesSerial forces the bounded worker pool on
// (even on single-CPU hosts) with a tiling small enough to produce many
// tiles, and asserts the tile-parallel schedule reduces to exactly the
// serial result.
func TestParallelTileLoopMatchesSerial(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 4 }
	defer func() { numTileWorkers = old }()

	rng := rand.New(rand.NewSource(7))
	a := sparse.Uniform(rng, 500, 2000, 0.008)
	b := sparse.Uniform(rng, 2000, 300, 0.05)

	for _, id := range AllDesigns {
		cfg := GetConfig(id)
		// Shrink the tiles so every design sees well over minParallelTiles.
		cfg.BRAMRowsPerTile = 64
		cfg.BRAMCapacityNNZ = 512

		ws, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ws.simulateBound(nil, cfg, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := wp.SimulateCtx(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Tiles < minParallelTiles {
			t.Fatalf("%v: only %d tiles; the parallel path was not exercised", id, serial.Tiles)
		}
		if serial != parallel {
			t.Errorf("%v: tile-parallel result diverged:\nserial:   %+v\nparallel: %+v", id, serial, parallel)
		}
	}
}

// TestConcurrentSimulateAllRace exercises concurrent SimulateAllCtx calls on
// shared *sparse.CSR inputs and concurrent SimulateCtx calls on one shared
// Workload — run under `go test -race ./...` (ci.sh) this is the data-race
// proof for the cache layer.
func TestConcurrentSimulateAllRace(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 4 } // force design fan-out + tile pool
	defer func() { numTileWorkers = old }()

	rng := rand.New(rand.NewSource(33))
	a := sparse.PowerLaw(rng, 600, 600, 4200, 1.7)
	b := sparse.Uniform(rng, 600, 128, 0.1)

	want, err := simulateAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := simulateAll(a, b)
			if err != nil {
				errc <- err
				return
			}
			if got != want {
				t.Error("concurrent SimulateAllCtx on shared CSR diverged")
			}
		}()
		for _, id := range AllDesigns {
			wg.Add(1)
			go func(id DesignID) {
				defer wg.Done()
				got, err := shared.SimulateCtx(context.Background(), GetConfig(id))
				if err != nil {
					errc <- err
					return
				}
				if got != want[id] {
					t.Errorf("%v: concurrent SimulateCtx on shared Workload diverged", id)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestWorkloadPrecomputeShared pins the cache behavior: repeated and
// cross-design simulations reuse one CSC conversion, one B row-count
// pass, and shared bins for designs with identical binning keys.
func TestWorkloadPrecomputeShared(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := sparse.Uniform(rng, 400, 400, 0.02)
	b := sparse.DenseRandom(rng, 400, 64)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w.CSC() != w.CSC() {
		t.Error("CSC conversion not cached")
	}
	if &w.BRowNNZ()[0] != &w.BRowNNZ()[0] {
		t.Error("B row counts not cached")
	}
	if _, err := w.SimulateAllCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Designs 1 and 2 share the dense column-wise binning; Design 3 (row
	// traversal) and Design 4 (compressed tiling) each add one entry.
	w.mu.Lock()
	bins, tilings := len(w.bins), len(w.tilings)
	w.mu.Unlock()
	if bins != 3 {
		t.Errorf("bin cache holds %d entries, want 3 (D1+D2 shared, D3, D4)", bins)
	}
	if tilings != 2 {
		t.Errorf("tiling cache holds %d entries, want 2 (dense, sparsity-aware)", tilings)
	}
}

func TestNewWorkloadDimensionMismatch(t *testing.T) {
	if _, err := NewWorkload(sparse.Identity(4), sparse.Identity(5)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestConfigValidateRejectsZeroChannels pins the satellite fix: a
// zero-channel (or otherwise degenerate) Config must surface as an
// explicit error from SimulateCtx, never as quietly wrong cycle counts.
func TestConfigValidateRejectsZeroChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := sparse.Uniform(rng, 100, 100, 0.05)
	b := sparse.DenseRandom(rng, 100, 16)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range AllDesigns {
		if err := GetConfig(id).Validate(); err != nil {
			t.Errorf("%v: Table 1 config rejected: %v", id, err)
		}
	}
	break1 := func(mut func(*Config)) Config {
		cfg := GetConfig(Design1)
		mut(&cfg)
		return cfg
	}
	bad := []Config{
		break1(func(c *Config) { c.ChA = 0 }),
		break1(func(c *Config) { c.ChB = -2 }),
		break1(func(c *Config) { c.ChC = 0 }),
		break1(func(c *Config) { c.PEG = 0 }),
		break1(func(c *Config) { c.ACC = 0 }),
		break1(func(c *Config) { c.SIMDWidth = 0 }),
		break1(func(c *Config) { c.AElemsPerRead = 0 }),
		break1(func(c *Config) { c.CElemsPerWrite = 0 }),
		break1(func(c *Config) { c.FreqMHz = 0 }),
		{}, // a forgotten common(): everything zero
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed Validate", i)
		}
		if _, err := w.SimulateCtx(context.Background(), cfg); err == nil {
			t.Errorf("bad config %d: SimulateCtx returned no error", i)
		}
	}
}
