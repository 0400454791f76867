package sim

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"misam/internal/sparse"
)

// TestTileMemoEquivalence is the memoization correctness property: engines
// sharing one explicitly attached TileCache — including runs whose every
// tile is served from another workload's entries — stay bit-identical to
// the memo-off serial reference, across the generator families, the exact
// and pruned modes, and both engine branches.
func TestTileMemoEquivalence(t *testing.T) {
	old := numTileWorkers
	defer func() { numTileWorkers = old }()
	shared := NewTileCache(16 << 20)
	for _, tc := range equivalencePairs(t) {
		serial, err := SimulateAllSerial(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: serial: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			numTileWorkers = func() int { return workers }
			// Two independent workloads of the same pair: the first warms
			// the shared cache, the second re-simulates through it (the
			// verifier's job shape).
			for pass := 0; pass < 2; pass++ {
				w, err := NewWorkload(tc.a, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				w.AttachTileCache(shared)
				exact, err := w.SimulateAllCtx(context.Background())
				if err != nil {
					t.Fatalf("%s (workers=%d, pass %d): %v", tc.name, workers, pass, err)
				}
				if exact != serial {
					t.Errorf("%s (workers=%d, pass %d): memoized SimulateAllCtx diverged:\nserial: %+v\nmemo:   %+v",
						tc.name, workers, pass, serial, exact)
				}
				wp, err := NewWorkload(tc.a, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				wp.AttachTileCache(shared)
				got, err := wp.SimulateAllPrunedCtx(context.Background())
				if err != nil {
					t.Fatalf("%s pruned (workers=%d, pass %d): %v", tc.name, workers, pass, err)
				}
				checkPrunedEquivalence(t, tc.name+"/memo", serial, got)
			}
		}
		numTileWorkers = old
	}
	if st := shared.Stats(); st.Hits == 0 {
		t.Error("shared tile cache recorded no hits across repeated simulations of identical pairs")
	}
}

// TestTileCacheCrossWorkloadReuse pins the acceptance criterion behind the
// verifier attachment: re-simulating a just-served pair through a fresh
// workload against the same shared cache serves at least half its tile
// lookups from memoized schedules.
func TestTileCacheCrossWorkloadReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1007))
	a := sparse.Uniform(rng, 800, 800, 0.01)
	b := sparse.DenseRandom(rng, 800, 64)
	shared := NewTileCache(1 << 20)

	serve, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serve.AttachTileCache(shared)
	if _, err := serve.SimulateAllPrunedCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	before := shared.Stats()
	verify, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	verify.AttachTileCache(shared)
	if _, err := verify.SimulateAllPrunedCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := shared.Stats()

	hits := after.Hits - before.Hits
	lookups := hits + (after.Misses - before.Misses)
	if lookups == 0 {
		t.Fatal("verify pass performed no tile lookups")
	}
	if rate := float64(hits) / float64(lookups); rate < 0.5 {
		t.Errorf("verifier reuse rate %.2f < 0.5 (%d hits / %d lookups)", rate, hits, lookups)
	}
}

// TestTileCacheHitPathZeroAllocs pins the warm hit path alongside
// TestSimulateAllSteadyStateZeroAllocs: with a shared cache attached and
// every tile already memoized, repeated simulation allocates nothing and
// actually hits.
func TestTileCacheHitPathZeroAllocs(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 1 }
	defer func() { numTileWorkers = old }()

	a, b := steadyPair()
	shared := NewTileCache(4 << 20)
	w, err := NewWorkload(a, b)
	if err != nil {
		t.Fatal(err)
	}
	w.AttachTileCache(shared)
	ctx := context.Background()
	if _, err := w.SimulateAllPrunedCtx(ctx); err != nil {
		t.Fatal(err) // warm: caches, pools, memoized tiles
	}

	before := shared.Stats()
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := w.SimulateAllPrunedCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("tile-cache hit path: %.1f allocs/op, want 0", avg)
	}
	after := shared.Stats()
	if after.Hits <= before.Hits {
		t.Error("warm pruned runs recorded no tile-cache hits")
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := w.SimulateAllCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("tile-cache hit path (exact): %.1f allocs/op, want 0", avg)
	}
}

// midSimFloorPairs are the floor-property workloads: the equivalence
// families (mostly single-tile) plus pairs deep enough that the dense and
// compressed tilings both split into several tiles, so the per-tile floors
// are exercised tile by tile.
func midSimFloorPairs(t testing.TB) []struct {
	name string
	a, b *sparse.CSR
} {
	t.Helper()
	pairs := equivalencePairs(t)
	rng := rand.New(rand.NewSource(77001))
	return append(pairs, []struct {
		name string
		a, b *sparse.CSR
	}{
		// B.Rows 9000 > 2×BRAMRowsPerTile → 3 dense tiles; B carries
		// > BRAMCapacityNNZ nonzeros → multiple compressed tiles too.
		{"deep-uniform", sparse.Uniform(rng, 600, 9000, 0.002), sparse.Uniform(rng, 9000, 96, 0.05)},
		{"deep-powerlaw", sparse.PowerLaw(rng, 500, 10000, 15000, 1.6), sparse.Uniform(rng, 10000, 64, 0.07)},
	}...)
}

// TestMidSimFloorsNeverExceedExact is the running-bound validity property
// (the mirror of TestCoarseBoundIsLowerBound at tile granularity): every
// per-tile analytic floor is at most the tile's exact cycle charge, so at
// any point of the tile loop the seeded partial — exact charges for
// finished tiles plus floors for the rest — never exceeds the design's
// true total, whatever suffix of tiles remains.
func TestMidSimFloorsNeverExceedExact(t *testing.T) {
	for _, tc := range midSimFloorPairs(t) {
		w, err := NewWorkload(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		w.AttachTileCache(nil) // exact per-tile charges, no memo involved
		for _, id := range AllDesigns {
			cfg := GetConfig(id)
			ce := w.coarseFloors(cfg)
			tiles, tileNNZ := w.tiling(cfg)
			perTile := w.binned(cfg, tiles)
			if len(ce.floors) != len(tiles) {
				t.Fatalf("%s/%v: %d floors for %d tiles", tc.name, id, len(ce.floors), len(tiles))
			}
			sc := w.getSched()
			var exactTotal int64
			multi := 0
			for tl := range tiles {
				o := simulateTile(cfg, tiles[tl], perTile[tl], tileNNZ[tl], w.B.Cols, sc)
				if o.skip {
					if ce.floors[tl] != 0 {
						t.Errorf("%s/%v tile %d: skip tile has floor %d", tc.name, id, tl, ce.floors[tl])
					}
					continue
				}
				multi++
				if ce.floors[tl] > o.cycles {
					t.Errorf("%s/%v tile %d: floor %d exceeds exact tile cycles %d",
						tc.name, id, tl, ce.floors[tl], o.cycles)
				}
				exactTotal += o.cycles
			}
			w.putSched(sc)
			writeback := ceilDiv64(w.COutputs(), int64(cfg.CElemsPerWrite*cfg.ChC))
			if ce.total > exactTotal+writeback {
				t.Errorf("%s/%v: floor total %d exceeds exact total %d",
					tc.name, id, ce.total, exactTotal+writeback)
			}
			if tc.name == "deep-uniform" && multi < 2 {
				t.Errorf("%s/%v: expected a multi-tile workload, got %d live tiles", tc.name, id, multi)
			}
		}
	}
}

// TestTileBoundRaceHammer races the mid-simulation running bound across
// the design fan-out with memoization enabled: several goroutines share
// one Workload AND one TileCache with the tile pool forced on, so — under
// `go test -race` (ci.sh runs this by name) — the seeded partial counter,
// the racing best-so-far bound and the striped cache slots are all
// exercised concurrently while the argmin contract is asserted.
func TestTileBoundRaceHammer(t *testing.T) {
	old := numTileWorkers
	numTileWorkers = func() int { return 4 }
	defer func() { numTileWorkers = old }()

	rng := rand.New(rand.NewSource(31007))
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
	shared.AttachTileCache(NewTileCache(1 << 20))
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
			checkPrunedEquivalence(t, "memo-racing", serial, got)
		}(simModes[i%len(simModes)])
	}
	wg.Wait()
}

// tileStreamFromBytes deterministically expands fuzz bytes into an element
// stream (3 bytes per element).
func tileStreamFromBytes(data []byte, rows, cols int) []Elem {
	elems := make([]Elem, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		elems = append(elems, Elem{
			Row:     int(data[i]) % rows,
			Col:     int(data[i+1]) % cols,
			Service: int64(data[i+2]%9) + 1,
		})
	}
	return elems
}

// FuzzTileStreamHash hunts for tile-key collisions — a collision means a
// wrong schedule is reused and silently corrupts a Result. The fuzzer
// builds two streams from independent byte strings and asserts: equal
// schedule-relevant content ⇒ equal keys (determinism, including the
// column-wise projection that ignores Col), and equal keys ⇒ equal
// content (no collision found).
func FuzzTileStreamHash(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{1, 2, 3, 4, 5, 6}, uint8(0))
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 4}, uint8(1))
	f.Add([]byte{7, 7, 7, 8, 8, 8}, []byte{}, uint8(2))
	f.Add([]byte{0, 0, 0}, []byte{0, 1, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, d1, d2 []byte, saltSel uint8) {
		salts := []uint64{tileSalt(GetConfig(Design1)), tileSalt(GetConfig(Design2)),
			tileSalt(GetConfig(Design3)), tileSalt(GetConfig(Design4))}
		salt := salts[int(saltSel)%len(salts)]
		e1 := tileStreamFromBytes(d1, 64, 64)
		e2 := tileStreamFromBytes(d2, 64, 64)
		for _, rowWise := range []bool{false, true} {
			h1, l1 := hashTileElems(e1, rowWise, salt)
			h2, l2 := hashTileElems(e2, rowWise, salt)
			if h1 == 0 && l1 == 0 {
				t.Fatal("hash produced the empty-slot sentinel")
			}
			same := len(e1) == len(e2)
			if same {
				for i := range e1 {
					if e1[i].Row != e2[i].Row || e1[i].Service != e2[i].Service ||
						(rowWise && e1[i].Col != e2[i].Col) {
						same = false
						break
					}
				}
			}
			if same && (h1 != h2 || l1 != l2) {
				t.Errorf("rowWise=%v: equal schedule-relevant streams hashed differently", rowWise)
			}
			if !same && h1 == h2 && l1 == l2 {
				t.Errorf("rowWise=%v: tile-stream hash collision:\n%v\n%v", rowWise, e1, e2)
			}
		}
		// Distinct design salts must separate identical streams.
		if len(e1) > 0 {
			h1, l1 := hashTileElems(e1, false, salts[0])
			h2, l2 := hashTileElems(e1, false, salts[1])
			if h1 == h2 && l1 == l2 {
				t.Error("identical stream under distinct config salts produced one key")
			}
		}
	})
}

// TestScheduleWindowedMatchesReference is the flattened-scheduler
// equivalence property: the non-trace path (optimistic prefix + dense
// ready-mask window) must produce the same Busy/Bubbles/Makespan as the
// general windowed scan, which still backs trace mode — across random
// streams, dependency gaps, and window widths on both sides of
// flatWindowMax.
func TestScheduleWindowedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55331))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		rows := 1 + rng.Intn(40)
		elems := make([]Elem, n)
		for i := range elems {
			elems[i] = Elem{Row: rng.Intn(rows), Col: rng.Intn(64), Service: int64(rng.Intn(5))}
		}
		depGap := int64(rng.Intn(6))
		windows := []int{1, 2, 3, 16, flatWindowMax, flatWindowMax + 9}
		window := windows[rng.Intn(len(windows))]
		ref := schedulePE(elems, depGap, window, true)
		got := schedulePE(elems, depGap, window, false)
		if got.Busy != ref.Busy || got.Bubbles != ref.Bubbles || got.Makespan != ref.Makespan {
			t.Fatalf("trial %d (n=%d rows=%d gap=%d window=%d): flattened diverged:\nref: busy=%d bubbles=%d makespan=%d\ngot: busy=%d bubbles=%d makespan=%d",
				trial, n, rows, depGap, window,
				ref.Busy, ref.Bubbles, ref.Makespan, got.Busy, got.Bubbles, got.Makespan)
		}
	}
}

// TestTileHashPinned pins the per-config salts and the tile stream hash
// to constants recorded before the tile cache's splitmix64 finalizer
// moved to sparse.Mix64.
func TestTileHashPinned(t *testing.T) {
	want := [NumDesigns]uint64{0x110852734c48fb14, 0x5d0d8e4b87ac8fd4, 0x23a0c8efed2812dd, 0x110852734c48fb14}
	for i, d := range AllDesigns {
		if got := tileSalt(GetConfig(d)); got != want[i] {
			t.Errorf("tileSalt(design %d) = %#x, want %#x", d, got, want[i])
		}
	}
	elems := []Elem{{Row: 1, Col: 2, Service: 3}, {Row: 4, Col: 5, Service: 6}}
	if hi, lo := hashTileElems(elems, true, want[0]); hi != 0x84344e481f05fda0 || lo != 0xfa5b7ae5583e3158 {
		t.Errorf("row-wise tile hash = (%#x, %#x), want (0x84344e481f05fda0, 0xfa5b7ae5583e3158)", hi, lo)
	}
	if hi, lo := hashTileElems(elems, false, want[3]); hi != 0x588032444e305b0c || lo != 0x3f62f14d5d34ea0 {
		t.Errorf("column-wise tile hash = (%#x, %#x), want (0x588032444e305b0c, 0x3f62f14d5d34ea0)", hi, lo)
	}
}
