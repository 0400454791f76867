package sim

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"misam/internal/sparse"
)

// simModes are the two ways to evaluate every design on one Workload:
// exact, and the pruned tier.
var simModes = []func(*Workload, context.Context) ([NumDesigns]Result, error){
	(*Workload).SimulateAllCtx,
	(*Workload).SimulateAllPrunedCtx,
}

// checkPrunedEquivalence asserts the SimulateAllPrunedCtx contract against the
// serial reference: same argmin, bit-identical winner Result, bit-identical
// non-pruned losers, and pruned losers that (a) are marked, (b) carry a
// valid lower bound, and (c) report strictly worse Seconds than the winner
// so BestDesign's design-order tie-breaking is unaffected.
func checkPrunedEquivalence(t *testing.T, name string, serial, pruned [NumDesigns]Result) {
	t.Helper()
	sBest, pBest := BestDesign(serial), BestDesign(pruned)
	if sBest != pBest {
		t.Errorf("%s: argmin diverged: serial %v, pruned %v", name, sBest, pBest)
		return
	}
	if pruned[pBest].Pruned {
		t.Errorf("%s: winner %v reported as pruned", name, pBest)
	}
	for _, id := range AllDesigns {
		if !pruned[id].Pruned {
			if pruned[id] != serial[id] {
				t.Errorf("%s/%v: non-pruned result diverged from serial reference:\nserial: %+v\npruned: %+v",
					name, id, serial[id], pruned[id])
			}
			continue
		}
		if pruned[id].Cycles > serial[id].Cycles {
			t.Errorf("%s/%v: pruned bound %d cycles exceeds exact total %d — not a lower bound",
				name, id, pruned[id].Cycles, serial[id].Cycles)
		}
		if pruned[id].Seconds <= serial[sBest].Seconds {
			t.Errorf("%s/%v: pruned loser seconds %.6g not strictly worse than winner's %.6g",
				name, id, pruned[id].Seconds, serial[sBest].Seconds)
		}
	}
}

// TestSimulateAllOptsMatchesSerial is the pruned tier's correctness
// property over the generator-family pairs: on both the sequential and the
// forced-parallel tile engine, coarse ranking plus early exit preserves
// the argmin and the winner's exact Result bit for bit.
func TestSimulateAllOptsMatchesSerial(t *testing.T) {
	old := numTileWorkers
	defer func() { numTileWorkers = old }()
	for _, tc := range equivalencePairs(t) {
		serial, err := SimulateAllSerial(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			numTileWorkers = func() int { return workers }
			w, err := NewWorkload(tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.SimulateAllPrunedCtx(context.Background())
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", tc.name, workers, err)
			}
			checkPrunedEquivalence(t, tc.name, serial, got)
		}
		numTileWorkers = old
	}
}

// TestSimulateAllOptsRandomPairs widens the property to a seeded stream
// of random CSR pairs across shapes and densities.
func TestSimulateAllOptsRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(60625))
	for i := 0; i < 12; i++ {
		m := 50 + rng.Intn(400)
		k := 50 + rng.Intn(400)
		n := 8 + rng.Intn(256)
		var a, b *sparse.CSR
		switch i % 3 {
		case 0:
			a = sparse.Uniform(rng, m, k, 0.002+rng.Float64()*0.05)
			b = sparse.DenseRandom(rng, k, n)
		case 1:
			a = sparse.PowerLaw(rng, m, k, m*4, 1.5+rng.Float64())
			b = sparse.Uniform(rng, k, n, 0.02+rng.Float64()*0.2)
		default:
			a = sparse.Uniform(rng, m, k, 0.001+rng.Float64()*0.01)
			b = sparse.Uniform(rng, k, n, 0.001+rng.Float64()*0.05)
		}
		serial, err := SimulateAllSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.SimulateAllPrunedCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPrunedEquivalence(t, "random", serial, got)
	}
}

// FuzzSimulateAllPruned fuzzes the argmin-preservation contract over
// generator parameters (the seed corpus runs in every `go test`).
func FuzzSimulateAllPruned(f *testing.F) {
	f.Add(int64(1), uint16(200), uint16(150), uint16(64), uint16(30))
	f.Add(int64(7), uint16(64), uint16(500), uint16(16), uint16(200))
	f.Add(int64(42), uint16(333), uint16(333), uint16(96), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, densityPct uint16) {
		rows := int(m)%600 + 1
		cols := int(k)%600 + 1
		rhs := int(n)%128 + 1
		density := float64(densityPct%300) / 1000
		rng := rand.New(rand.NewSource(seed))
		a := sparse.Uniform(rng, rows, cols, density)
		b := sparse.Uniform(rng, cols, rhs, 0.1)
		serial, err := SimulateAllSerial(a, b)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(a, b)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := w.SimulateAllPrunedCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkPrunedEquivalence(t, "fuzz", serial, pruned)
	})
}

// TestCoarseBoundIsLowerBound pins the analytic bound's validity: for
// every design and pair, coarseBound never exceeds the exact cycle count.
func TestCoarseBoundIsLowerBound(t *testing.T) {
	for _, tc := range equivalencePairs(t) {
		w, err := NewWorkload(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range AllDesigns {
			cfg := GetConfig(id)
			exact, err := w.SimulateCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb, nTiles := w.coarseBound(cfg)
			if lb > exact.Cycles {
				t.Errorf("%s/%v: coarse bound %d exceeds exact cycles %d", tc.name, id, lb, exact.Cycles)
			}
			if nTiles != exact.Tiles {
				t.Errorf("%s/%v: coarse tile count %d != exact %d", tc.name, id, nTiles, exact.Tiles)
			}
		}
	}
}

// TestEarlyExitRacingBound runs the exact and the pruned mode
// concurrently from several goroutines on one shared Workload with the
// tile pool forced on, so the early-exit bound races the tile workers of
// each design and the pooled bounds, scratches and caches are shared
// between callers. Under `go test -race` (ci.sh runs this by name) this
// is the data-race proof for the early-exit path.
func TestEarlyExitRacingBound(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 4 }
	defer func() { numTileWorkers = old }()

	rng := rand.New(rand.NewSource(66))
	a := sparse.PowerLaw(rng, 700, 700, 4900, 1.7)
	b := sparse.Uniform(rng, 700, 128, 0.08)
	serial, err := SimulateAllSerial(a, b)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(run func(*Workload, context.Context) ([NumDesigns]Result, error)) {
			defer wg.Done()
			got, err := run(shared, context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			checkPrunedEquivalence(t, "racing", serial, got)
		}(simModes[i%len(simModes)])
	}
	wg.Wait()
}
