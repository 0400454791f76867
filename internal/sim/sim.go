package sim

import (
	"slices"

	"misam/internal/sparse"
)

// Result is the outcome of simulating one design on one workload.
type Result struct {
	Design DesignID

	// Cycles is the end-to-end cycle count; Seconds converts it with the
	// design's Table 2 clock.
	Cycles  int64
	Seconds float64

	// Breakdown of where cycles went. Per tile the engine charges
	// max(compute, A read, B read) plus broadcast fill and drain, since
	// streaming overlaps I/O with compute; the C write-back is charged
	// once at the end (§3.2.1).
	ComputeCycles   int64
	AReadCycles     int64
	BReadCycles     int64
	BroadcastCycles int64
	CWriteCycles    int64

	// Tiles is the number of B row tiles processed.
	Tiles int
	// Bubbles counts dependency-stall cycles across all PEs and tiles.
	Bubbles int64
	// PEUtilization is busy cycles / (PEs × makespan), aggregated.
	PEUtilization float64
	// Flops is the useful multiply-accumulate count of the product.
	Flops int64
	// COutputs is the (estimated) number of C entries written back.
	COutputs int64

	// Pruned marks a design whose evaluation was cut short by the
	// early-exit bound or skipped by the coarse analytic ranking. Cycles
	// and Seconds then hold a lower bound that is already provably worse
	// than the winning design's exact total; the breakdown fields are
	// zero. The winner of SimulateAllPrunedCtx is never pruned — its
	// Result is bit-identical to the exact path.
	Pruned bool
}

// Throughput reports useful GFLOP/s (2 ops per multiply-accumulate).
func (r Result) Throughput() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return 2 * float64(r.Flops) / r.Seconds / 1e9
}

// BestDesign returns the design with the lowest simulated latency.
func BestDesign(results [NumDesigns]Result) DesignID {
	best := Design1
	for _, id := range AllDesigns {
		if results[id].Seconds < results[best].Seconds {
			best = id
		}
	}
	return best
}

// mergeCycles charges Design 3's reduction of per-PEG partial C rows:
// each output row touched by k distinct PEGs needs k-1 vector merges of
// Service width, spread over the ACC accumulator groups. Regular dense-ish
// workloads touch every PEG per row (expensive — why Design 2 beats
// Design 3 there); skewed workloads touch few (cheap).
//
// The dedup is sort-based, O(n log n) with no map allocations: (row, peg)
// pairs are sorted with the original index as tiebreak, so the first
// traversal-order occurrence of each pair — whose Service feeds the merge
// width, matching the historical map-based implementation — leads its
// group.
func mergeCycles(elems []Elem, cfg Config) int64 {
	return mergeCyclesScratch(elems, cfg, &schedScratch{})
}

// rowPeg is mergeCycles' sort key: a (row, peg) pair with the traversal
// index as tiebreak and the element's service width along for the merge
// cost.
type rowPeg struct {
	row, peg, idx int
	svc           int64
}

func compareRowPeg(a, b rowPeg) int {
	if a.row != b.row {
		if a.row < b.row {
			return -1
		}
		return 1
	}
	if a.peg != b.peg {
		if a.peg < b.peg {
			return -1
		}
		return 1
	}
	if a.idx < b.idx {
		return -1
	}
	return 1
}

// mergeCyclesScratch is mergeCycles backed by the worker's scratch so the
// hot path allocates nothing. When the design has at most 64 PEGs (every
// Table 1 design does), the dedup is a single pass over an epoch-stamped
// per-row PEG bitmask — O(n) instead of the O(n log n) sort, with the
// same distinct-(row, peg) set and the same max-Service merge width, so
// the result is bit-identical. Wider configs fall back to the sort.
func mergeCyclesScratch(elems []Elem, cfg Config, sc *schedScratch) int64 {
	if len(elems) == 0 {
		return 0
	}
	if cfg.PEG <= 64 {
		rows := sc.rowsHint
		if rows <= 0 {
			maxRow := 0
			for i := range elems {
				if elems[i].Row > maxRow {
					maxRow = elems[i].Row
				}
			}
			rows = maxRow + 1
		}
		if rows > len(sc.mergeStamp) {
			grown := 2 * len(sc.mergeStamp)
			if grown < rows {
				grown = rows
			}
			sc.mergeStamp = make([]uint64, grown)
			sc.mergeMask = make([]uint64, grown)
		}
		sc.mergeEpoch++
		stamp, mask, epoch := sc.mergeStamp, sc.mergeMask, sc.mergeEpoch
		var svc int64 = 1
		var pairs, touched int64 // distinct (row, peg) pairs; distinct rows
		for i := range elems {
			e := &elems[i]
			bit := uint64(1) << (e.Col % cfg.PEG)
			if stamp[e.Row] != epoch {
				stamp[e.Row] = epoch
				mask[e.Row] = bit
				touched++
				pairs++
				if e.Service > svc {
					svc = e.Service
				}
				continue
			}
			if mask[e.Row]&bit == 0 {
				mask[e.Row] |= bit
				pairs++
				if e.Service > svc {
					svc = e.Service
				}
			}
		}
		// Σ over rows of (distinct PEGs − 1) = pairs − touched.
		return ceilDiv64((pairs-touched)*svc, int64(cfg.ACC))
	}
	if cap(sc.mergeKeys) < len(elems) {
		sc.mergeKeys = make([]rowPeg, len(elems))
	}
	keys := sc.mergeKeys[:len(elems)]
	for i, e := range elems {
		keys[i] = rowPeg{row: e.Row, peg: e.Col % cfg.PEG, idx: i, svc: e.Service}
	}
	// The idx tiebreak makes the order total, so the (unstable) sort is
	// deterministic and equal to the historical sort.Slice order.
	slices.SortFunc(keys, compareRowPeg)
	var svc int64 = 1
	var merges int64 // Σ over rows of (distinct PEGs − 1)
	var perRow int64
	prevRow, prevPeg := -1, -1
	for i := range keys {
		k := &keys[i]
		if k.row != prevRow {
			if perRow > 1 {
				merges += perRow - 1
			}
			perRow = 0
			prevRow, prevPeg = k.row, -1
		}
		if k.peg != prevPeg {
			// First traversal-order occurrence of this (row, peg) pair.
			perRow++
			prevPeg = k.peg
			if k.svc > svc {
				svc = k.svc
			}
		}
	}
	if perRow > 1 {
		merges += perRow - 1
	}
	return ceilDiv64(merges*svc, int64(cfg.ACC))
}

// ScheduleOptions configures direct scheduling of a whole matrix, used by
// the Figure 6 toy-timeline experiment and the scheduler tests.
type ScheduleOptions struct {
	PEGs      int
	PEsPerPEG int
	Traversal Traversal
	DepGap    int64
	Window    int
	Trace     bool
	// Service maps an A column to the element's service time; nil means
	// one cycle per element (the toy setting).
	Service func(col int) int64
}

// ScheduleA schedules all of A as a single tile under opt and returns the
// per-PEG schedules.
func ScheduleA(a *sparse.CSR, opt ScheduleOptions) []PEGSchedule {
	if opt.PEGs < 1 {
		opt.PEGs = 1
	}
	if opt.PEsPerPEG < 1 {
		opt.PEsPerPEG = 1
	}
	if opt.DepGap < 1 {
		opt.DepGap = 2
	}
	if opt.Window < 1 {
		opt.Window = 16
	}
	svc := opt.Service
	if svc == nil {
		svc = func(int) int64 { return 1 }
	}
	tiles := []Span{{0, a.Cols}}
	var perTile [][]Elem
	if opt.Traversal == ColWise {
		perTile = binByTileColWise(a.ToCSCPattern(), tiles, svc)
	} else {
		perTile = binByTileRowWise(a, tiles, svc)
	}
	// Group the tile engine's per-(PEG, PE) queues by PEG; each group
	// finishes when its slowest PE does (§3.2.1).
	var sc schedScratch
	queues := sc.scatterTile(perTile[0], opt.PEGs, opt.PEsPerPEG, opt.Traversal)
	out := make([]PEGSchedule, opt.PEGs)
	for p := range out {
		g := PEGSchedule{PEs: make([]PESchedule, opt.PEsPerPEG)}
		for e, q := range queues[p*opt.PEsPerPEG : (p+1)*opt.PEsPerPEG] {
			ps := schedulePEScratch(q, opt.DepGap, opt.Window, opt.Trace, &sc)
			g.PEs[e] = ps
			g.Busy += ps.Busy
			g.Bubbles += ps.Bubbles
			g.Makespan = max(g.Makespan, ps.Makespan)
		}
		g.Capacity = int64(opt.PEsPerPEG) * g.Makespan
		out[p] = g
	}
	return out
}

// Makespan reports the overall makespan of a set of PEG schedules (the
// slowest group finishes last).
func Makespan(groups []PEGSchedule) int64 {
	var m int64
	for _, g := range groups {
		if g.Makespan > m {
			m = g.Makespan
		}
	}
	return m
}

// flopCount mirrors spgemm.FlopCount using precomputed B row counts.
func flopCount(a *sparse.CSR, bRowNNZ []int) int64 {
	var total int64
	for _, c := range a.ColIdx {
		total += int64(bRowNNZ[c])
	}
	return total
}

// estimateCOutputs bounds nnz(C) per output row by min(Σ nnz(B rows), N)
// — cheap, exact for dense B, and an upper bound otherwise. The write-back
// cost model uses it so large products pay proportionally for ch_C
// bandwidth.
func estimateCOutputs(a *sparse.CSR, bRowNNZ []int, n int) int64 {
	var total int64
	for r := 0; r < a.Rows; r++ {
		cols, _ := a.Row(r)
		var ub int64
		for _, c := range cols {
			ub += int64(bRowNNZ[c])
		}
		if ub > int64(n) {
			ub = int64(n)
		}
		total += ub
	}
	return total
}
