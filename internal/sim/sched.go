package sim

import "math/bits"

// The PE scheduler of Figure 6: elements are issued in traversal order to
// each PE; an element updating output row r cannot issue within
// DepGapCycles of the previous element of row r on the same PE; the
// scheduler may fill the resulting bubbles by issuing a later element of
// a different row from within a bounded lookahead window.

// Elem is one unit of scheduled work: the A nonzero at (Row, Col), whose
// processing occupies the PE for Service cycles (ceil(B-row width / SIMD)).
type Elem struct {
	Row, Col int
	Service  int64
}

// Issue records one scheduled element for trace-level inspection (used by
// the Figure 6 toy-timeline experiment).
type Issue struct {
	Cycle int64
	Elem  Elem
}

// PESchedule is the outcome of scheduling one PE's queue.
type PESchedule struct {
	// Makespan is the cycle at which the PE finishes its last element.
	Makespan int64
	// Busy is the total cycles the PE spent processing elements.
	Busy int64
	// Bubbles is the total idle cycles injected by dependency stalls.
	Bubbles int64
	// Issues is the per-element trace; populated only when tracing.
	Issues []Issue
}

// schedScratch owns every reusable buffer of the per-tile simulation path
// (simulateTile → scatterTile → schedulePEScratch → mergeCyclesScratch).
// Tiles on a worker run sequentially, so one scratch per worker serves
// every PEG and tile that worker touches; the steady state allocates
// nothing. The zero value is ready to use.
type schedScratch struct {
	// ready[r] is row r's earliest next issue time, valid only when
	// stamp[r] equals the current epoch. This is the slice-table
	// replacement for the historical map[int]int64: one epoch bump
	// invalidates the whole table in O(1), and row lookup is a bounds
	// check plus a stamp compare instead of a hash probe.
	ready []int64
	stamp []uint64
	epoch uint64
	// done marks scheduled elements of the PE currently being scheduled.
	done []bool
	// rowsHint, when positive, is an upper bound on every Elem.Row this
	// scratch will ever schedule (the workload's A.Rows). It lets
	// schedulePEScratch size the row table without scanning the queue for
	// its max row first.
	rowsHint int
	// queueCounts/queueBuf/queues back scatterTile's per-(PEG, PE)
	// partition of a tile's elements.
	// PEG's elements.
	queueCounts []int
	queueBuf    []Elem
	queues      [][]Elem
	// pegCounts holds scatterTile's per-PEG round-robin counters.
	pegCounts []int
	// elemQueue holds scatterTile's per-element queue index between its
	// counting and fill passes, so the assignment arithmetic runs once.
	elemQueue []int32
	// mergeKeys backs mergeCyclesScratch's sort fallback (PEG > 64);
	// mergeMask/mergeStamp/mergeEpoch back its one-pass per-row PEG
	// bitmask dedup (the common case).
	mergeKeys  []rowPeg
	mergeMask  []uint64
	mergeStamp []uint64
	mergeEpoch uint64
	// winRow/winSvc/winReady back scheduleWindowed's dense lookahead
	// window: the first ≤ flatWindowMax live elements in stream order,
	// with their release times cached so the ready scan is a straight
	// arithmetic pass instead of repeated stamp-checked table probes.
	winRow   [flatWindowMax]int
	winSvc   [flatWindowMax]int64
	winReady [flatWindowMax]int64
}

// flatWindowMax is the widest lookahead the flattened ready-mask scheduler
// handles: one 64-bit mask word. Every Table 1 design uses window 16.
const flatWindowMax = 64

// begin opens a fresh PE schedule over n elements whose output rows are
// all below rows: done flags are cleared and the row-release table is
// invalidated by bumping the epoch (no O(rows) clear).
func (sc *schedScratch) begin(n, rows int) {
	sc.epoch++
	if rows > len(sc.ready) {
		grown := 2 * len(sc.ready)
		if grown < rows {
			grown = rows
		}
		sc.ready = make([]int64, grown)
		sc.stamp = make([]uint64, grown)
	}
	if cap(sc.done) < n {
		sc.done = make([]bool, n)
	} else {
		sc.done = sc.done[:n]
		clear(sc.done)
	}
}

// readyAt returns row's earliest next issue time in the current epoch.
func (sc *schedScratch) readyAt(row int) int64 {
	if sc.stamp[row] == sc.epoch {
		return sc.ready[row]
	}
	return 0
}

func (sc *schedScratch) setReady(row int, t int64) {
	sc.stamp[row] = sc.epoch
	sc.ready[row] = t
}

// schedulePE runs greedy windowed list scheduling over elems for one PE.
// depGap is the load/store dependency distance in issue slots: an element
// of row r may not start until depGap slots (each lasting the previous
// element's service time) after the previous issue of row r, modelling
// the read-modify-write latency of the row's accumulator. window bounds
// the lookahead (>=1); trace retains the issue list.
func schedulePE(elems []Elem, depGap int64, window int, trace bool) PESchedule {
	return schedulePEScratch(elems, depGap, window, trace, nil)
}

// schedulePEScratch is schedulePE with caller-owned buffers; sc may be
// nil (fresh buffers are allocated). The schedule is a pure function of
// (elems, depGap, window) — scratch reuse only removes allocation churn.
func schedulePEScratch(elems []Elem, depGap int64, window int, trace bool, sc *schedScratch) PESchedule {
	var s PESchedule
	if len(elems) == 0 {
		return s
	}
	if window < 1 {
		window = 1
	}
	if sc == nil {
		sc = &schedScratch{}
	}
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
	sc.begin(len(elems), rows)
	done := sc.done
	head := 0
	t := int64(0)
	if !trace {
		// Optimistic in-order prefix: while the head element's row
		// dependency is already satisfied, the windowed scan trivially
		// chooses the head (it is checked first and taken on ready <= t),
		// so issue it without running the scan machinery. The loop below
		// is the general scheduler specialized to chosen == head; on the
		// first stalled head it stops and the general loop resumes from
		// exactly this state (prefix indices are never revisited — head
		// only advances — so done flags for them are not needed).
		stamp, ready, epoch := sc.stamp, sc.ready, sc.epoch
		for head < len(elems) {
			e := &elems[head]
			if stamp[e.Row] == epoch && ready[e.Row] > t {
				break
			}
			svc := e.Service
			if svc < 1 {
				svc = 1
			}
			stamp[e.Row] = epoch
			ready[e.Row] = t + depGap*svc
			s.Busy += svc
			t += svc
			head++
		}
		if head == len(elems) {
			s.Makespan = t
			return s
		}
		if window <= flatWindowMax {
			return scheduleWindowed(elems, head, t, depGap, window, sc, s)
		}
	}
	remaining := len(elems) - head
	for remaining > 0 {
		// Advance head past completed elements.
		for head < len(elems) && done[head] {
			head++
		}
		// Scan up to `window` live elements for the first whose row
		// dependency is satisfied at time t. Track the earliest time any
		// of them becomes ready so we can jump on a full stall.
		chosen := -1
		nextReady := int64(-1)
		live := 0
		for i := head; i < len(elems) && live < window; i++ {
			if done[i] {
				continue
			}
			live++
			ready := sc.readyAt(elems[i].Row)
			if ready <= t {
				chosen = i
				break
			}
			if nextReady < 0 || ready < nextReady {
				nextReady = ready
			}
		}
		if chosen < 0 {
			// Bubble: nothing in the window is ready. Jump to the first
			// release time ("padding with inefficient zeros", §3.2.2).
			s.Bubbles += nextReady - t
			t = nextReady
			continue
		}
		e := elems[chosen]
		done[chosen] = true
		remaining--
		if trace {
			s.Issues = append(s.Issues, Issue{Cycle: t, Elem: e})
		}
		svc := e.Service
		if svc < 1 {
			svc = 1
		}
		sc.setReady(e.Row, t+depGap*svc)
		s.Busy += svc
		t += svc
	}
	s.Makespan = t
	return s
}

// scheduleWindowed finishes a PE schedule from the first stalled head
// using a flattened dense window: the first n ≤ window live elements, in
// stream order, held in three parallel fixed-width arrays with their
// release times cached. Each iteration builds a ready bitmask in one
// branch-free arithmetic pass ((release − t − 1) >> 63 is all-ones exactly
// when release ≤ t), picks the lowest set bit — the first ready element in
// stream order, the same choice the windowed scan makes — or jumps to the
// minimum release on a full stall. Issued slots are compacted out with
// copy and the next stream element refills the tail, so the window is
// always exactly the first live elements and the schedule is bit-identical
// to the general loop below, without its repeated rescans of done
// elements.
func scheduleWindowed(elems []Elem, head int, t int64, depGap int64, window int, sc *schedScratch, s PESchedule) PESchedule {
	n := 0
	for i := head; i < len(elems) && n < window; i++ {
		e := &elems[i]
		svc := e.Service
		if svc < 1 {
			svc = 1
		}
		sc.winRow[n] = e.Row
		sc.winSvc[n] = svc
		sc.winReady[n] = sc.readyAt(e.Row)
		n++
	}
	next := head + n
	for n > 0 {
		var mask uint64
		for i := 0; i < n; i++ {
			mask |= uint64((sc.winReady[i]-t-1)>>63) & (uint64(1) << uint(i))
		}
		if mask == ^uint64(0)>>uint(64-n) {
			// Window drain. Every slot is ready, so the scan below would
			// issue slot 0, then slot 1, ... — the lowest ready index is
			// always the next slot in stream order — until an issue's
			// release lands on a later slot of the same row. Issue the
			// prefix back to back, re-checking each slot's row against
			// the release table at its turn (exactly the state the scan
			// would see), and stop at the first slot an earlier issue
			// blocked. Refills are all later in stream order than the
			// drained prefix, so they could not have been picked during
			// it, and re-reading every surviving slot's ready time after
			// the drain reproduces the scan's release propagation.
			i := 0
			for ; i < n; i++ {
				row := sc.winRow[i]
				if sc.readyAt(row) > t {
					break
				}
				svc := sc.winSvc[i]
				sc.setReady(row, t+depGap*svc)
				s.Busy += svc
				t += svc
			}
			if i > 0 {
				copy(sc.winRow[0:n-i], sc.winRow[i:n])
				copy(sc.winSvc[0:n-i], sc.winSvc[i:n])
				n -= i
				for next < len(elems) && n < window {
					e := &elems[next]
					next++
					svc := e.Service
					if svc < 1 {
						svc = 1
					}
					sc.winRow[n] = e.Row
					sc.winSvc[n] = svc
					n++
				}
				for j := 0; j < n; j++ {
					sc.winReady[j] = sc.readyAt(sc.winRow[j])
				}
				continue
			}
		}
		if mask == 0 {
			// Bubble: nothing in the window is ready. Jump to the first
			// release time ("padding with inefficient zeros", §3.2.2).
			min := sc.winReady[0]
			for i := 1; i < n; i++ {
				if sc.winReady[i] < min {
					min = sc.winReady[i]
				}
			}
			s.Bubbles += min - t
			t = min
			continue
		}
		i := bits.TrailingZeros64(mask)
		row := sc.winRow[i]
		svc := sc.winSvc[i]
		release := t + depGap*svc
		sc.setReady(row, release)
		s.Busy += svc
		t += svc
		copy(sc.winRow[i:n-1], sc.winRow[i+1:n])
		copy(sc.winSvc[i:n-1], sc.winSvc[i+1:n])
		copy(sc.winReady[i:n-1], sc.winReady[i+1:n])
		n--
		if next < len(elems) {
			e := &elems[next]
			next++
			sv := e.Service
			if sv < 1 {
				sv = 1
			}
			sc.winRow[n] = e.Row
			sc.winSvc[n] = sv
			sc.winReady[n] = sc.readyAt(e.Row)
			n++
		}
		// Propagate the new release time to every cached slot of the
		// issued row (the refill above already read it from the table).
		for j := 0; j < n; j++ {
			if sc.winRow[j] == row {
				sc.winReady[j] = release
			}
		}
	}
	s.Makespan = t
	return s
}

// PEGSchedule aggregates the PE schedules of one processing element group.
type PEGSchedule struct {
	Makespan int64
	Busy     int64
	Bubbles  int64
	Capacity int64 // PEs × makespan, the denominator of utilization
	PEs      []PESchedule
}

// scatterTile is the one element→queue assignment of the simulator: it
// partitions a tile's elements into per-(PEG, PE) queues with one counting
// pass and one fill pass. Queue p*numPEs+e holds PEG p, PE e in traversal
// order; the tile engine schedules the queues directly, and ScheduleA and
// BuildHostSchedule group them by PEG.
//
// Column-wise designs pin output rows to PEGs (row % PEGs), matching
// §3.2.1's partitioning of A across PEG FIFOs, and round-robin each PEG's
// elements over its PEs in traversal order. Design 3's row-wise
// scheduling instead pins columns (col % PEGs): a single heavy row then
// spreads over the whole accelerator, which is exactly how it "better
// accommodates irregular sparsity patterns" (§3.2.3) — at the price of a
// cross-PEG merge of partial C rows (mergeCycles). Within the PEG the PE
// is (col / PEGs) % PEs, the "column_num%PE" rule applied hierarchically.
func (sc *schedScratch) scatterTile(elems []Elem, pegs, numPEs int, traversal Traversal) [][]Elem {
	nq := pegs * numPEs
	if cap(sc.queueCounts) < nq {
		sc.queueCounts = make([]int, nq)
	} else {
		sc.queueCounts = sc.queueCounts[:nq]
		clear(sc.queueCounts)
	}
	counts := sc.queueCounts
	if cap(sc.elemQueue) < len(elems) {
		sc.elemQueue = make([]int32, len(elems))
	}
	qidx := sc.elemQueue[:len(elems)]

	// Pass 1: compute each element's queue index once (the div/mod work
	// happens a single time per element, not again in the fill pass) and
	// count queue sizes. Variable-divisor div/mod is the dominant cost
	// here, so the real design points get cheaper arithmetic: power-of-two
	// PEG counts (Designs 1 and 4) reduce to shift/mask, and non-power-of-
	// two counts (24 in Designs 2 and 3) use a Lemire multiply-high
	// reciprocal — exact for 32-bit indices, two MULs instead of a
	// hardware divide. Anything exotic falls back to plain % arithmetic.
	peMask := numPEs - 1
	pePow2 := numPEs > 0 && numPEs&peMask == 0
	switch {
	case traversal == RowWise && pePow2 && pegs&(pegs-1) == 0:
		shift := uint(bits.TrailingZeros(uint(pegs)))
		pMask := pegs - 1
		for i := range elems {
			c := elems[i].Col
			q := int32((c&pMask)*numPEs + (c>>shift)&peMask)
			qidx[i] = q
			counts[q]++
		}
	case traversal == RowWise && pePow2:
		recip := ^uint64(0)/uint64(pegs) + 1
		for i := range elems {
			c := uint64(uint32(elems[i].Col))
			div, _ := bits.Mul64(recip, c)
			mod, _ := bits.Mul64(recip*c, uint64(pegs))
			q := int32(int(mod)*numPEs + int(div)&peMask)
			qidx[i] = q
			counts[q]++
		}
	case traversal != RowWise && pePow2:
		// ColWise round-robins within each PEG's stream order; rr[p] is
		// PEG p's running element count.
		rr := sc.pegCursors(pegs)
		if pegs&(pegs-1) == 0 {
			pMask := pegs - 1
			for i := range elems {
				p := elems[i].Row & pMask
				q := int32(p*numPEs + rr[p]&peMask)
				rr[p]++
				qidx[i] = q
				counts[q]++
			}
		} else {
			recip := ^uint64(0)/uint64(pegs) + 1
			for i := range elems {
				mod, _ := bits.Mul64(recip*uint64(uint32(elems[i].Row)), uint64(pegs))
				p := int(mod)
				q := int32(p*numPEs + rr[p]&peMask)
				rr[p]++
				qidx[i] = q
				counts[q]++
			}
		}
	default:
		rr := sc.pegCursors(pegs)
		for i := range elems {
			var q int32
			if traversal == RowWise {
				c := elems[i].Col
				q = int32((c%pegs)*numPEs + (c/pegs)%numPEs)
			} else {
				p := elems[i].Row % pegs
				q = int32(p*numPEs + rr[p]%numPEs)
				rr[p]++
			}
			qidx[i] = q
			counts[q]++
		}
	}

	// Pass 2: carve the backing buffer, then scatter through per-queue
	// write cursors (counts is repurposed in place) — a single int
	// increment per element instead of append's slice-header read/write.
	if cap(sc.queueBuf) < len(elems) {
		sc.queueBuf = make([]Elem, len(elems))
	}
	buf := sc.queueBuf[:len(elems)]
	if cap(sc.queues) < nq {
		sc.queues = make([][]Elem, nq)
	}
	queues := sc.queues[:nq]
	off := 0
	for q := 0; q < nq; q++ {
		n := counts[q]
		queues[q] = buf[off : off+n : off+n]
		counts[q] = off
		off += n
	}
	for i := range elems {
		cur := &counts[qidx[i]]
		buf[*cur] = elems[i]
		*cur = *cur + 1
	}
	return queues
}

// pegCursors returns pegs zeroed per-PEG round-robin counters.
func (sc *schedScratch) pegCursors(pegs int) []int {
	if cap(sc.pegCounts) < pegs {
		sc.pegCounts = make([]int, pegs)
	} else {
		sc.pegCounts = sc.pegCounts[:pegs]
		clear(sc.pegCounts)
	}
	return sc.pegCounts
}
