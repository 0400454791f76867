package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"misam/internal/baseline"
	"misam/internal/sparse"
)

// Workload is the design-independent precompute of one A×B product. The
// simulator re-derives the same artifacts for every design it evaluates —
// A's CSC form, per-row B nonzero counts, flop and C-output totals, and
// the per-format tilings and element bins — so evaluating all four designs
// (or the same pair under several configs, as the dataset labeller and the
// reconfiguration engine do) used to pay that cost four times over.
// Workload computes each artifact once, on first use, and shares it across
// every simulation on the same pair.
//
// A Workload is safe for concurrent use: all caches are built under
// sync.Once-style guards, and the cached artifacts are immutable once
// published. SimulateAllCtx relies on this to fan the four designs out over
// goroutines against one shared Workload.
type Workload struct {
	// A and B are the operands; they must not be mutated while the
	// workload is in use (the caches alias their storage).
	A, B *sparse.CSR

	cscOnce sync.Once
	aCSC    *sparse.CSC

	preOnce  sync.Once
	bRowNNZ  []int
	flops    int64
	cOutputs int64
	aMaxRow  int

	mu      sync.Mutex
	tilings map[tilingKey]*tilingEntry
	bins    map[binKey]*binEntry
	coarse  map[Config]*coarseEntry

	// poolMu guards the workload-level scratch freelists. Scheduling
	// scratches and per-call tile state are pooled here — not per
	// simulation — so warm serving reuses fully grown buffers across
	// requests and the steady state allocates nothing. Plain freelists
	// rather than sync.Pool: the GC never clears them, which is what lets
	// the AllocsPerRun guard pin 0 allocs/op.
	poolMu    sync.Mutex
	schedFree []*schedScratch
	runFree   []*tileRun
	boundFree []*raceBound

	// Tile-level memoization (see TileCache). tcAttached is the cache an
	// owner (Framework, verifier, bench) explicitly attached so schedules
	// are shared across workloads; AttachTileCache(nil) disables
	// memoization entirely (the serial reference path does this). When
	// nothing was attached, a small private cache is created lazily so
	// near-duplicate tiles inside one workload — and repeated simulation
	// calls on it — still reuse schedules.
	tcExplicit bool
	tcAttached *TileCache
	tcPrivate  *TileCache
}

// tileRun is the pooled per-simulation state: the tile outcome buffer
// plus the shared counters the tile workers race on.
type tileRun struct {
	outs    []tileOutcome
	next    int64
	partial atomic.Int64
	abort   atomic.Bool
}

func (w *Workload) getSched() *schedScratch {
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	if n := len(w.schedFree); n > 0 {
		sc := w.schedFree[n-1]
		w.schedFree = w.schedFree[:n-1]
		return sc
	}
	// Every Elem.Row this workload schedules is an A row index, so the
	// scratch can size its row tables up front instead of scanning each
	// PE queue for its max row.
	return &schedScratch{rowsHint: w.A.Rows}
}

func (w *Workload) putSched(sc *schedScratch) {
	w.poolMu.Lock()
	w.schedFree = append(w.schedFree, sc)
	w.poolMu.Unlock()
}

// getRun returns per-call tile state with outs sized for n tiles. Every
// live (non-skip) slot is written before the reduction reads it, and the
// abort path never reduces, so outs needs no zeroing.
func (w *Workload) getRun(n int) *tileRun {
	w.poolMu.Lock()
	var run *tileRun
	if ln := len(w.runFree); ln > 0 {
		run = w.runFree[ln-1]
		w.runFree = w.runFree[:ln-1]
	} else {
		run = &tileRun{}
	}
	w.poolMu.Unlock()
	if cap(run.outs) < n {
		run.outs = make([]tileOutcome, n)
	}
	run.outs = run.outs[:n]
	run.next = 0
	run.partial.Store(0)
	run.abort.Store(false)
	return run
}

func (w *Workload) putRun(run *tileRun) {
	w.poolMu.Lock()
	w.runFree = append(w.runFree, run)
	w.poolMu.Unlock()
}

// getBound returns a pooled racing bound reset to +Inf. Bounds escape to
// the heap (goroutines capture them), so pooling keeps the pruned paths
// allocation-free in the steady state.
func (w *Workload) getBound() *raceBound {
	w.poolMu.Lock()
	var b *raceBound
	if n := len(w.boundFree); n > 0 {
		b = w.boundFree[n-1]
		w.boundFree = w.boundFree[:n-1]
	} else {
		b = &raceBound{}
	}
	w.poolMu.Unlock()
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (w *Workload) putBound(b *raceBound) {
	w.poolMu.Lock()
	w.boundFree = append(w.boundFree, b)
	w.poolMu.Unlock()
}

// AttachTileCache points the workload at a shared tile-schedule cache, so
// its simulations reuse (and feed) schedules memoized by other workloads —
// the verifier re-simulating a just-served pair is the canonical client.
// Attaching nil disables tile memoization for this workload.
func (w *Workload) AttachTileCache(tc *TileCache) {
	w.poolMu.Lock()
	w.tcExplicit = true
	w.tcAttached = tc
	w.poolMu.Unlock()
}

// tileCacheRef resolves the cache simulations memoize through: the
// explicitly attached cache if AttachTileCache was called (possibly nil =
// disabled), otherwise a lazily created private default.
func (w *Workload) tileCacheRef() *TileCache {
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	if w.tcExplicit {
		return w.tcAttached
	}
	if w.tcPrivate == nil {
		w.tcPrivate = NewTileCache(DefaultTileCacheBytes)
	}
	return w.tcPrivate
}

// tilingKey identifies one B row-tiling scheme: Design 4's sparsity-aware
// packing keyed by nnz capacity, or the dense fixed-height scheme keyed by
// tile rows.
type tilingKey struct {
	compressed bool
	param      int
}

// binKey identifies one cached binning of A's elements: the tiling they
// were binned against, the traversal order, and the service-time rule
// baked into each Elem (compressed walks stored nonzeros, dense walks
// b.Cols; both divided by the SIMD width).
type binKey struct {
	tiling     tilingKey
	traversal  Traversal
	compressed bool
	simd       int
}

type tilingEntry struct {
	once    sync.Once
	tiles   []Span
	tileNNZ []int64
}

type binEntry struct {
	once    sync.Once
	perTile [][]Elem
}

// NewWorkload validates the product dimensions and returns an empty
// precompute cache for A×B. All artifacts are computed lazily on first
// use, so a workload that only ever simulates Design 4 never builds the
// dense tiling.
func NewWorkload(a, b *sparse.CSR) (*Workload, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sim: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return &Workload{
		A:       a,
		B:       b,
		tilings: make(map[tilingKey]*tilingEntry),
		bins:    make(map[binKey]*binEntry),
		coarse:  make(map[Config]*coarseEntry),
	}, nil
}

// CSC returns A's compressed-sparse-column sparsity pattern, converting
// once. The returned CSC has a nil Val: every simulator consumer —
// column-wise traversal, tile binning, the coarse floors — is
// value-independent, so the conversion skips the value scatter.
func (w *Workload) CSC() *sparse.CSC {
	w.cscOnce.Do(func() { w.aCSC = w.A.ToCSCPattern() })
	return w.aCSC
}

func (w *Workload) precompute() {
	w.preOnce.Do(func() {
		nnz := make([]int, w.B.Rows)
		for r := 0; r < w.B.Rows; r++ {
			nnz[r] = w.B.RowNNZ(r)
		}
		w.bRowNNZ = nnz
		w.flops = flopCount(w.A, nnz)
		w.cOutputs = estimateCOutputs(w.A, nnz, w.B.Cols)
		maxRow := 0
		for r := 0; r < w.A.Rows; r++ {
			if n := w.A.RowNNZ(r); n > maxRow {
				maxRow = n
			}
		}
		w.aMaxRow = maxRow
	})
}

// AMaxRow returns the nonzero count of A's longest row, cached with the
// rest of the precompute (BaselineStats and the load-imbalance features
// both need it; neither re-walks A's row pointers).
func (w *Workload) AMaxRow() int {
	w.precompute()
	return w.aMaxRow
}

// BRowNNZ returns the per-row nonzero counts of B. The slice is shared;
// callers must not modify it.
func (w *Workload) BRowNNZ() []int {
	w.precompute()
	return w.bRowNNZ
}

// FlopCount returns the useful multiply-accumulate count of the product.
func (w *Workload) FlopCount() int64 {
	w.precompute()
	return w.flops
}

// COutputs returns the estimated number of C entries written back (see
// estimateCOutputs).
func (w *Workload) COutputs() int64 {
	w.precompute()
	return w.cOutputs
}

// BaselineStats derives the baseline cost models' workload statistics
// entirely from the cached precompute. The values are identical to
// baseline.Collect(A, B) — Flops and Outputs are the same exact integer
// sums, and the imbalance term uses the cached longest-row count — so
// repeated calls on one workload cost O(1) beyond the first.
func (w *Workload) BaselineStats() baseline.Stats {
	w.precompute()
	s := baseline.Stats{
		M: w.A.Rows, K: w.A.Cols, N: w.B.Cols,
		NNZA: w.A.NNZ(), NNZB: w.B.NNZ(),
		ADensity: w.A.Density(), BDensity: w.B.Density(),
		Flops:   float64(w.flops),
		Outputs: float64(w.cOutputs),
	}
	maxRow := w.aMaxRow
	if w.A.Rows > 0 && s.NNZA > 0 {
		s.AImbalance = float64(maxRow) / (float64(s.NNZA) / float64(w.A.Rows))
	} else {
		s.AImbalance = 1
	}
	if w.B.Rows > 0 {
		s.AvgBRowNNZ = float64(s.NNZB) / float64(w.B.Rows)
	}
	return s
}

// tiling returns the cached B row tiles and per-tile nonzero counts for a
// design's tiling scheme.
func (w *Workload) tiling(cfg Config) ([]Span, []int64) {
	key := tilingKey{compressed: cfg.CompressedB, param: cfg.BRAMRowsPerTile}
	if cfg.CompressedB {
		key.param = cfg.BRAMCapacityNNZ
	}
	w.mu.Lock()
	e, ok := w.tilings[key]
	if !ok {
		e = &tilingEntry{}
		w.tilings[key] = e
	}
	w.mu.Unlock()
	e.once.Do(func() {
		if key.compressed {
			e.tiles = SparsityAwareRowTiles(w.B, key.param)
		} else {
			e.tiles = DenseRowTiles(w.B.Rows, key.param)
		}
		e.tileNNZ = make([]int64, len(e.tiles))
		for t, s := range e.tiles {
			e.tileNNZ[t] = int64(w.B.RowPtr[s.Hi] - w.B.RowPtr[s.Lo])
		}
	})
	return e.tiles, e.tileNNZ
}

// binned returns the cached per-tile element bins of A for a design's
// tiling, traversal and service rule. Designs 1 and 2 share one entry
// (same dense tiling, column-wise order, SIMD width); Design 3 adds a
// row-wise entry over the same tiling; Design 4 has its own. The coarse
// floors deliberately do not use bins (see coarseFloors), so only
// designs that reach the exact simulator pay for binning.
func (w *Workload) binned(cfg Config, tiles []Span) [][]Elem {
	key := binKey{
		tiling:     tilingKey{compressed: cfg.CompressedB, param: cfg.BRAMRowsPerTile},
		traversal:  cfg.SchedulerA,
		compressed: cfg.CompressedB,
		simd:       cfg.SIMDWidth,
	}
	if cfg.CompressedB {
		key.tiling.param = cfg.BRAMCapacityNNZ
	}
	w.mu.Lock()
	e, ok := w.bins[key]
	if !ok {
		e = &binEntry{}
		w.bins[key] = e
	}
	w.mu.Unlock()
	e.once.Do(func() {
		service := w.serviceFunc(cfg)
		if cfg.SchedulerA == ColWise {
			e.perTile = binByTileColWise(w.CSC(), tiles, service)
		} else {
			e.perTile = binByTileRowWise(w.A, tiles, service)
		}
	})
	return e.perTile
}

// serviceFunc builds the per-column service-time rule of §3.2.1/§3.2.4:
// processing one A element walks the matching B row through the SIMD
// lanes; compressed B walks only the stored nonzeros.
func (w *Workload) serviceFunc(cfg Config) func(col int) int64 {
	if cfg.CompressedB {
		nnz := w.BRowNNZ()
		simd := int64(cfg.SIMDWidth)
		return func(col int) int64 { return ceilDiv64(int64(nnz[col]), simd) }
	}
	dense := ceilDiv64(int64(w.B.Cols), int64(cfg.SIMDWidth))
	return func(int) int64 { return dense }
}

// SimulateCtx runs design cfg against the cached workload. Results are
// bit-identical to the serial reference (SimulateAllSerial): tiles may be
// scheduled in parallel, but every per-tile quantity is reduced in tile
// order and all cross-tile accumulations are exact integer sums.
// Cancellation or deadline expiry aborts the tile pool between tiles and
// returns ctx.Err().
func (w *Workload) SimulateCtx(ctx context.Context, cfg Config) (Result, error) {
	return w.simulateBound(ctx, cfg, true, nil)
}

// SimulateAllCtx evaluates every design exactly, sharing the precompute
// and fanning the four designs out over goroutines. On error the first
// failing design (in design order) wins; a cancelled or expired context
// aborts all four design simulations mid-tile-pool. With a single
// processor the fan-out buys nothing and the goroutine interleaving
// thrashes the cache, so the designs run sequentially instead — the
// deterministic simulator makes the two paths indistinguishable.
func (w *Workload) SimulateAllCtx(ctx context.Context) ([NumDesigns]Result, error) {
	// The serial and parallel paths live in separate functions so the
	// serial result array is never captured by a goroutine closure —
	// such a capture would box it on the heap on every call and break
	// the steady-state zero-allocation guarantee.
	if numTileWorkers() <= 1 {
		var out [NumDesigns]Result
		for _, id := range AllDesigns {
			var err error
			if out[id], err = w.simulateBound(ctx, GetConfig(id), true, nil); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	return w.simulateAllParallel(ctx)
}

// simulateAllParallel fans the four exact design simulations out over
// goroutines.
func (w *Workload) simulateAllParallel(ctx context.Context) ([NumDesigns]Result, error) {
	var out [NumDesigns]Result
	var errs [NumDesigns]error
	var wg sync.WaitGroup
	for _, id := range AllDesigns {
		wg.Add(1)
		go func(id DesignID) {
			defer wg.Done()
			out[id], errs[id] = w.simulateBound(ctx, GetConfig(id), true, nil)
		}(id)
	}
	wg.Wait()
	for _, id := range AllDesigns {
		if errs[id] != nil {
			return out, errs[id]
		}
	}
	return out, nil
}

// raceBound is the best complete design latency seen so far, stored as
// float64 bits in an atomic for lock-free CAS-min updates. The tile
// workers of the design being simulated race on it; concurrent callers on
// one Workload each take their own from its pool.
type raceBound struct {
	bits atomic.Uint64
}

func (b *raceBound) best() float64 {
	return math.Float64frombits(b.bits.Load())
}

// offer lowers the bound to s if s is smaller. Only complete (non-pruned)
// design totals may be offered — a pruned lower bound could otherwise
// incorrectly prune the true winner.
func (b *raceBound) offer(s float64) {
	for {
		cur := b.bits.Load()
		if s >= math.Float64frombits(cur) {
			return
		}
		if b.bits.CompareAndSwap(cur, math.Float64bits(s)) {
			return
		}
	}
}

// SimulateAllPrunedCtx evaluates every design through the pruned slow
// tier: it ranks the designs by a cheap analytic lower bound (tiling
// shapes + per-tile busy totals, no scheduling), evaluates them
// most-promising first, skips any design whose bound alone is strictly
// worse than a completed contender, and aborts a design's tile loop once
// its running lower bound is strictly worse (early exit). Both layers are
// argmin-preserving: per-tile charges are non-negative and the bound never
// exceeds the exact total. Guarantees:
//
//   - BestDesign over the returned array equals BestDesign over
//     SimulateAllCtx's (ties included: pruned losers report strictly
//     worse Seconds than the winner, so design-order tie-breaking is
//     unaffected).
//   - The winner's Result — and every Result with Pruned == false — is
//     bit-identical to the exact path.
//   - Pruned == true marks every Result that is a lower bound rather
//     than an exact total.
//
// Evaluation is sequential by rank — the whole point is that later
// designs see the tightest possible bound.
func (w *Workload) SimulateAllPrunedCtx(ctx context.Context) ([NumDesigns]Result, error) {
	var out [NumDesigns]Result
	var lbCycles [NumDesigns]int64
	var lbSeconds [NumDesigns]float64
	var nTiles [NumDesigns]int
	for _, id := range AllDesigns {
		cfg := GetConfig(id)
		if err := cfg.Validate(); err != nil {
			return out, err
		}
		lbCycles[id], nTiles[id] = w.coarseBound(cfg)
		lbSeconds[id] = float64(lbCycles[id]) / (cfg.FreqMHz * 1e6)
	}
	// Rank by (bound, design order) — a 4-element insertion sort.
	var order [NumDesigns]DesignID
	copy(order[:], AllDesigns)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if lbSeconds[a] < lbSeconds[b] || (lbSeconds[a] == lbSeconds[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	bound := w.getBound()
	defer w.putBound(bound)
	for _, id := range order {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if lbSeconds[id] > bound.best() {
			// The analytic floor alone beats the bound: skip the exact
			// pass entirely and report the floor as a pruned result.
			w.tileCacheRef().noteCoarseSkip()
			out[id] = Result{
				Design:  id,
				Tiles:   nTiles[id],
				Cycles:  lbCycles[id],
				Seconds: lbSeconds[id],
				Pruned:  true,
			}
			continue
		}
		r, err := w.simulateBound(ctx, GetConfig(id), true, bound)
		if err != nil {
			return out, err
		}
		out[id] = r
		if !r.Pruned {
			bound.offer(r.Seconds)
		}
	}
	return out, nil
}

// coarseEntry caches one design's per-tile analytic floors: floors[t] is a
// lower bound on tile t's exact cycles (0 for skip tiles), total is
// Σ floors + the exact C write-back charge. Built once per Config per
// workload; the mid-simulation running bound subtracts floors tile by tile
// as exact outcomes replace them.
type coarseEntry struct {
	once   sync.Once
	floors []int64
	total  int64
}

// coarseFloors computes (once, then caches) the per-tile lower bounds
// behind coarseBound. Per tile it charges
// max(ceil(busy/PEs) + merge floor, A read, B read) + broadcast +
// dependency gap, each term a floor of the exact per-tile charge: any
// schedule's straggler-PEG makespan is at least ceil(busy/PEs), and the
// row-wise merge charge is at least (distinct (row, peg) pairs − touched
// rows) merges at the tile's minimum service width, since the exact charge
// uses the maximum width over first occurrences. The write-back term in
// total is exact.
//
// Every term comes from the CSR/CSC index arrays alone — per-tile element
// counts are ColPtr differences over the tile's column span, busy totals
// are count × service sums, and the merge dedup is one pass over A's
// sorted rows — so ranking (and skipping) a design never materializes its
// element bins: only designs that are actually simulated pay for binning.
func (w *Workload) coarseFloors(cfg Config) *coarseEntry {
	w.mu.Lock()
	e, ok := w.coarse[cfg]
	if !ok {
		e = &coarseEntry{}
		w.coarse[cfg] = e
	}
	w.mu.Unlock()
	e.once.Do(func() {
		tiles, tileNNZ := w.tiling(cfg)
		pes := int64(cfg.PEs())
		e.floors = make([]int64, len(tiles))
		writeBack := ceilDiv64(w.COutputs(), int64(cfg.CElemsPerWrite*cfg.ChC))
		if len(tiles) == 0 {
			e.total = writeBack
			return
		}
		csc := w.CSC()
		simd := int64(cfg.SIMDWidth)
		denseSvc := ceilDiv64(int64(w.B.Cols), simd)
		if denseSvc < 1 {
			denseSvc = 1
		}
		var bNNZ []int
		if cfg.CompressedB {
			bNNZ = w.BRowNNZ()
		}
		// Merge-floor inputs for row-wise designs: distinct (row, peg)
		// pairs and touched rows per tile. Wide-PEG configs (> 64, never
		// a Table 1 design) fall back to a zero merge floor, still valid.
		var pairs, touched []int64
		if cfg.SchedulerA == RowWise && cfg.PEG <= 64 {
			pairs, touched = w.mergeCounts(tiles, cfg.PEG)
		}
		var total int64
		for t, s := range tiles {
			spanNNZ := int64(csc.ColPtr[s.Hi] - csc.ColPtr[s.Lo])
			if spanNNZ == 0 && tileNNZ[t] == 0 {
				continue
			}
			var bRead int64
			if cfg.CompressedB {
				bRead = ceilDiv64(tileNNZ[t], int64(cfg.BCOOElemsPerRead*cfg.ChB))
			} else {
				bRead = ceilDiv64(int64(s.Rows())*int64(w.B.Cols), int64(cfg.BDenseElemsPerRead*cfg.ChB))
			}
			aRead := ceilDiv64(spanNNZ, int64(cfg.AElemsPerRead*cfg.ChA))
			// busy is Σ max(1, service) over the tile's elements — the
			// same totals binning computes, as service sums over the
			// span's column counts.
			busy := spanNNZ * denseSvc
			minSvc := denseSvc
			if cfg.CompressedB {
				busy = 0
				minSvc = int64(math.MaxInt64)
				for c := s.Lo; c < s.Hi; c++ {
					cn := int64(csc.ColPtr[c+1] - csc.ColPtr[c])
					if cn == 0 {
						continue
					}
					svc := ceilDiv64(int64(bNNZ[c]), simd)
					if svc < 1 {
						svc = 1
					}
					busy += cn * svc
					if svc < minSvc {
						minSvc = svc
					}
				}
			}
			compute := ceilDiv64(busy, pes)
			if pairs != nil {
				compute += ceilDiv64((pairs[t]-touched[t])*minSvc, int64(cfg.ACC))
			}
			m := compute
			if aRead > m {
				m = aRead
			}
			if bRead > m {
				m = bRead
			}
			e.floors[t] = m + int64(cfg.PEG) + cfg.DepGapCycles
			total += e.floors[t]
		}
		e.total = total + writeBack
	})
	return e
}

// mergeCounts tallies, per tile, the distinct (A row, column mod peg)
// pairs and the touched rows — the merge-floor dedup — in a single pass
// over A. Column indices are sorted within each row (a package sparse
// invariant), so a row's elements visit tiles in order and each
// (row, tile) segment needs just one running bitmask and one popcount.
func (w *Workload) mergeCounts(tiles []Span, peg int) (pairs, touched []int64) {
	pairs = make([]int64, len(tiles))
	touched = make([]int64, len(tiles))
	a := w.A
	for r := 0; r < a.Rows; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		if lo == hi {
			continue
		}
		t, cur := 0, -1
		var mask uint64
		for i := lo; i < hi; i++ {
			c := a.ColIdx[i]
			for c >= tiles[t].Hi {
				t++
			}
			if t != cur {
				if cur >= 0 {
					pairs[cur] += int64(bits.OnesCount64(mask))
					touched[cur]++
				}
				cur, mask = t, 0
			}
			mask |= 1 << uint(c%peg)
		}
		pairs[cur] += int64(bits.OnesCount64(mask))
		touched[cur]++
	}
	return pairs, touched
}

// coarseBound reports cfg's analytic lower bound on the total cycle count
// and its tile count, from the cached per-tile floors.
func (w *Workload) coarseBound(cfg Config) (int64, int) {
	e := w.coarseFloors(cfg)
	return e.total, len(e.floors)
}

// tileOutcome is the per-tile contribution to a Result, computed
// independently per tile and reduced in tile order.
type tileOutcome struct {
	compute   int64
	aRead     int64
	bRead     int64
	broadcast int64
	cycles    int64
	bubbles   int64
	busy      int64
	capacity  int64
	skip      bool
}

// minParallelTiles is the tile count below which the scheduling loop stays
// serial — goroutine fan-out costs more than it saves on tiny workloads.
const minParallelTiles = 4

// numTileWorkers bounds the per-tile worker pool and gates
// SimulateAllCtx's design fan-out. It is a variable so the equivalence tests can force the
// parallel paths on single-CPU hosts.
var numTileWorkers = runtime.NumCPU

// simulateBound simulates one design, with the tile pool when
// parallelTiles allows it, under an optional early-exit bound. When
// bound is non-nil, the partial counter starts at the design's full
// analytic lower bound (per-tile floors + exact write-back, see
// coarseFloors) and each finished tile swaps its floor for its exact
// charge — so at every instant partial is a valid lower bound on the
// design's total that covers the *remaining* tiles too, and it is
// checked both before and after each tile against the best complete
// design seconds seen so far. Once partial alone is strictly worse, the
// remaining tiles cannot change the argmin and the design returns a
// Pruned lower-bound Result. Every swap adds exact − floor ≥ 0, so the
// counter is monotone and the abort is safe: a design that would have
// won (or tied) the comparison never aborts, and its Result is
// bit-identical to the exact path.
func (w *Workload) simulateBound(ctx context.Context, cfg Config, parallelTiles bool, bound *raceBound) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := Result{Design: cfg.ID}

	tiles, tileNNZ := w.tiling(cfg)
	perTile := w.binned(cfg, tiles)
	res.Tiles = len(tiles)

	tc := w.tileCacheRef()
	var salt uint64
	if tc != nil {
		salt = tileSalt(cfg)
	}
	freqHz := cfg.FreqMHz * 1e6
	run := w.getRun(len(tiles))
	defer w.putRun(run)
	outs := run.outs
	var floors []int64
	if bound != nil {
		ce := w.coarseFloors(cfg)
		floors = ce.floors
		run.partial.Store(ce.total)
	}
	workers := numTileWorkers()
	if workers > len(tiles) {
		workers = len(tiles)
	}
	// Cancellation is polled between tiles (an atomic load per claim);
	// in-flight tiles finish, so an abort costs at most one tile per
	// worker. Each worker owns one pooled schedScratch: tiles on a
	// worker run sequentially, so the per-PE scheduling buffers are
	// reused across every tile that worker claims — and, because the
	// pool lives on the Workload, across requests.
	if parallelTiles && workers > 1 && len(tiles) >= minParallelTiles {
		w.runTilesParallel(ctx, cfg, tiles, perTile, tileNNZ, run, bound, floors, tc, salt, freqHz, workers)
	} else {
		sc := w.getSched()
		for t := range tiles {
			if ctx.Err() != nil {
				break
			}
			if bound != nil && float64(run.partial.Load())/freqHz > bound.best() {
				// The racing bound dropped below our floor on the
				// remaining tiles: abort before scheduling the next one.
				run.abort.Store(true)
				break
			}
			o := memoTile(cfg, tiles[t], perTile[t], tileNNZ[t], w.B.Cols, sc, tc, salt)
			outs[t] = o
			if bound != nil && float64(run.partial.Add(o.cycles-floors[t]))/freqHz > bound.best() {
				run.abort.Store(true)
				break
			}
		}
		w.putSched(sc)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if run.abort.Load() {
		// The partial total (exact charges for simulated tiles, analytic
		// floors for the rest, exact write-back) is a valid lower bound on
		// the design's true cycle count, and it is already strictly above
		// the best complete design's seconds.
		tc.noteBoundAbort()
		lb := run.partial.Load()
		return Result{
			Design:  cfg.ID,
			Tiles:   len(tiles),
			Cycles:  lb,
			Seconds: float64(lb) / freqHz,
			Pruned:  true,
		}, nil
	}

	// Deterministic reduction in tile order (every term is an exact
	// integer, so this matches the serial loop bit for bit).
	var busy, capacity int64
	for t := range outs {
		o := &outs[t]
		if o.skip {
			continue
		}
		busy += o.busy
		capacity += o.capacity
		res.ComputeCycles += o.compute
		res.AReadCycles += o.aRead
		res.BReadCycles += o.bRead
		res.BroadcastCycles += o.broadcast
		res.Bubbles += o.bubbles
		res.Cycles += o.cycles
	}

	// C write-back once the URAM accumulators hold the final tile sums.
	res.Flops = w.FlopCount()
	res.COutputs = w.COutputs()
	res.CWriteCycles = ceilDiv64(res.COutputs, int64(cfg.CElemsPerWrite*cfg.ChC))
	res.Cycles += res.CWriteCycles

	if capacity > 0 {
		res.PEUtilization = float64(busy) / float64(capacity)
	}
	res.Seconds = float64(res.Cycles) / freqHz
	return res, nil
}

// runTilesParallel is the goroutine tile pool of simulateBound, split
// into its own function so none of the serial path's locals are captured
// by a goroutine closure (such captures would box them on the heap on
// every call, breaking the steady-state zero-allocation guarantee).
func (w *Workload) runTilesParallel(ctx context.Context, cfg Config, tiles []Span, perTile [][]Elem, tileNNZ []int64, run *tileRun, bound *raceBound, floors []int64, tc *TileCache, salt uint64, freqHz float64, workers int) {
	outs := run.outs
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := w.getSched()
			defer w.putSched(sc)
			for ctx.Err() == nil && !run.abort.Load() {
				if bound != nil && float64(run.partial.Load())/freqHz > bound.best() {
					run.abort.Store(true)
					return
				}
				t := int(atomic.AddInt64(&run.next, 1)) - 1
				if t >= len(tiles) {
					return
				}
				o := memoTile(cfg, tiles[t], perTile[t], tileNNZ[t], w.B.Cols, sc, tc, salt)
				outs[t] = o
				if bound != nil && float64(run.partial.Add(o.cycles-floors[t]))/freqHz > bound.best() {
					run.abort.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// simulateTile charges one B row tile: the max(compute, A read, B read)
// streaming overlap of §3.2.1 plus broadcast fill and the inter-tile
// dependency gap.
func simulateTile(cfg Config, s Span, elems []Elem, tileNNZ int64, bCols int, sc *schedScratch) tileOutcome {
	if len(elems) == 0 && tileNNZ == 0 {
		return tileOutcome{skip: true} // nothing to stream or compute
	}
	busy, bubbles, compute := scheduleTile(cfg, elems, sc)
	return finishTile(cfg, s, elems, tileNNZ, bCols, busy, bubbles, compute)
}

// memoTile is simulateTile through the tile cache: the scheduling half is
// served from (and fed to) tc keyed by the stream's content hash, while
// the shape-derived half is always recomputed by finishTile. A nil tc
// disables memoization.
func memoTile(cfg Config, s Span, elems []Elem, tileNNZ int64, bCols int, sc *schedScratch, tc *TileCache, salt uint64) tileOutcome {
	if tc == nil {
		return simulateTile(cfg, s, elems, tileNNZ, bCols, sc)
	}
	if len(elems) == 0 && tileNNZ == 0 {
		return tileOutcome{skip: true}
	}
	hi, lo := hashTileElems(elems, cfg.SchedulerA == RowWise, salt)
	if busy, bubbles, compute, ok := tc.lookup(hi, lo); ok {
		return finishTile(cfg, s, elems, tileNNZ, bCols, busy, bubbles, compute)
	}
	busy, bubbles, compute := scheduleTile(cfg, elems, sc)
	tc.store(hi, lo, busy, bubbles, compute)
	return finishTile(cfg, s, elems, tileNNZ, bCols, busy, bubbles, compute)
}

// scheduleTile is the expensive, memoizable half of a tile charge: it
// schedules each PEG's share of the element stream (the tile completes
// when the slowest PEG does) and, for row-wise designs, adds the
// cross-accumulator merge of the per-PEG partial rows (see mergeCycles).
// Its result depends only on the stream content and the schedule-relevant
// Config fields — exactly what the tile-cache key hashes.
func scheduleTile(cfg Config, elems []Elem, sc *schedScratch) (busy, bubbles, compute int64) {
	// The tile's compute is the max over PEG makespans, each itself a max
	// over that group's PEs — so one flat max over all queues.
	for _, q := range sc.scatterTile(elems, cfg.PEG, cfg.PEsPerPEG, cfg.SchedulerA) {
		ps := schedulePEScratch(q, cfg.DepGapCycles, cfg.WindowSize, false, sc)
		busy += ps.Busy
		bubbles += ps.Bubbles
		if ps.Makespan > compute {
			compute = ps.Makespan
		}
	}
	if cfg.SchedulerA == RowWise {
		compute += mergeCyclesScratch(elems, cfg, sc)
	}
	return busy, bubbles, compute
}

// finishTile combines a tile's scheduling triple with the shape-derived
// charges that are cheap to recompute and deliberately excluded from the
// tile-cache key: B read over ChB, A stream over ChA, PEG-chain broadcast
// fill, straggler-PEG capacity, and the overlapped per-tile cycle total.
func finishTile(cfg Config, s Span, elems []Elem, tileNNZ int64, bCols int, busy, bubbles, compute int64) tileOutcome {
	var o tileOutcome
	if cfg.CompressedB {
		o.bRead = ceilDiv64(tileNNZ, int64(cfg.BCOOElemsPerRead*cfg.ChB))
	} else {
		o.bRead = ceilDiv64(int64(s.Rows())*int64(bCols), int64(cfg.BDenseElemsPerRead*cfg.ChB))
	}
	o.aRead = ceilDiv64(int64(len(elems)), int64(cfg.AElemsPerRead*cfg.ChA))
	// Broadcast fill: B forwards PEG-to-PEG down the chain (§3.2.1).
	o.broadcast = int64(cfg.PEG)
	o.busy, o.bubbles, o.compute = busy, bubbles, compute
	// Utilization counts idle lanes against the straggler PEG's makespan —
	// the §3.2.2 "bubbles plus padding" effect.
	o.capacity = int64(cfg.PEs()) * compute
	o.cycles = max64(compute, max64(o.aRead, o.bRead)) + o.broadcast + cfg.DepGapCycles
	return o
}

// SimulateAllSerial is the reference implementation: every design runs
// sequentially, each with a fresh precompute and a serial tile loop,
// exactly like the pre-Workload engine. The equivalence tests,
// BenchmarkSimulateAllSerial and the serving benchmark's answer check
// compare against it.
func SimulateAllSerial(a, b *sparse.CSR) ([NumDesigns]Result, error) {
	var out [NumDesigns]Result
	for _, id := range AllDesigns {
		w, err := NewWorkload(a, b)
		if err != nil {
			return out, err
		}
		// The reference never memoizes: every equivalence, golden and fuzz
		// gate then compares memo-on engines against memo-off scheduling.
		w.AttachTileCache(nil)
		r, err := w.simulateBound(context.Background(), GetConfig(id), false, nil)
		if err != nil {
			return out, err
		}
		out[id] = r
	}
	return out, nil
}
