package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"misam/internal/sparse"
)

func elemsFromRows(rows ...int) []Elem {
	out := make([]Elem, len(rows))
	for i, r := range rows {
		out[i] = Elem{Row: r, Col: i, Service: 1}
	}
	return out
}

func TestSchedulePEEmptyQueue(t *testing.T) {
	s := schedulePE(nil, 2, 16, false)
	if s.Makespan != 0 || s.Busy != 0 || s.Bubbles != 0 {
		t.Errorf("empty schedule = %+v, want zeros", s)
	}
}

func TestSchedulePEIndependentRowsBackToBack(t *testing.T) {
	// Four elements, all different rows: no stalls, makespan 4.
	s := schedulePE(elemsFromRows(0, 1, 2, 3), 2, 16, true)
	if s.Makespan != 4 || s.Bubbles != 0 {
		t.Errorf("makespan %d bubbles %d, want 4, 0", s.Makespan, s.Bubbles)
	}
	for i, is := range s.Issues {
		if is.Cycle != int64(i) {
			t.Errorf("issue %d at cycle %d, want %d", i, is.Cycle, i)
		}
	}
}

func TestSchedulePESameRowStalls(t *testing.T) {
	// Three elements of one row with a 2-cycle gap: issues at 0, 2, 4.
	s := schedulePE(elemsFromRows(7, 7, 7), 2, 16, true)
	if s.Makespan != 5 {
		t.Errorf("makespan %d, want 5 (issue at 4 + 1 service)", s.Makespan)
	}
	if s.Bubbles != 2 {
		t.Errorf("bubbles %d, want 2", s.Bubbles)
	}
	want := []int64{0, 2, 4}
	for i, is := range s.Issues {
		if is.Cycle != want[i] {
			t.Errorf("issue %d at %d, want %d", i, is.Cycle, want[i])
		}
	}
}

func TestSchedulePEFillsBubblesFromOtherRows(t *testing.T) {
	// Rows a,a,b: the same-row stall at cycle 1 is filled by row b
	// ("the scheduler can fill time step t+1 with a nonzero from another
	// row mapped to the same PE", §3.2.2).
	s := schedulePE(elemsFromRows(1, 1, 2), 2, 16, true)
	if s.Makespan != 3 || s.Bubbles != 0 {
		t.Errorf("makespan %d bubbles %d, want 3, 0", s.Makespan, s.Bubbles)
	}
	if s.Issues[1].Elem.Row != 2 {
		t.Errorf("cycle-1 issue is row %d, want bubble-filling row 2", s.Issues[1].Elem.Row)
	}
	if s.Issues[2].Elem.Row != 1 || s.Issues[2].Cycle != 2 {
		t.Errorf("deferred element issued at %d (row %d), want cycle 2 row 1", s.Issues[2].Cycle, s.Issues[2].Elem.Row)
	}
}

func TestSchedulePEWindowLimitsLookahead(t *testing.T) {
	// With window 1 the scheduler cannot reorder: rows a,a,b stalls.
	s := schedulePE(elemsFromRows(1, 1, 2), 2, 1, false)
	if s.Bubbles != 1 {
		t.Errorf("window-1 bubbles = %d, want 1", s.Bubbles)
	}
	if s.Makespan != 4 {
		t.Errorf("window-1 makespan = %d, want 4", s.Makespan)
	}
}

func TestSchedulePEServiceTimes(t *testing.T) {
	elems := []Elem{{Row: 0, Col: 0, Service: 4}, {Row: 1, Col: 1, Service: 4}}
	s := schedulePE(elems, 2, 16, false)
	if s.Makespan != 8 || s.Busy != 8 {
		t.Errorf("makespan %d busy %d, want 8, 8", s.Makespan, s.Busy)
	}
}

func TestSchedulePEZeroServiceClamped(t *testing.T) {
	s := schedulePE([]Elem{{Row: 0, Service: 0}}, 2, 16, false)
	if s.Makespan != 1 || s.Busy != 1 {
		t.Errorf("zero service not clamped to 1: %+v", s)
	}
}

// checkScheduleInvariants verifies the three hard schedule properties:
// every element issued exactly once, dependency gap respected per row,
// and no overlapping service intervals on the PE.
func checkScheduleInvariants(t *testing.T, elems []Elem, depGap int64, window int) {
	t.Helper()
	s := schedulePE(elems, depGap, window, true)
	if len(s.Issues) != len(elems) {
		t.Fatalf("issued %d of %d elements", len(s.Issues), len(elems))
	}
	lastEnd := int64(-1)
	lastRow := map[int]int64{}
	issued := map[[2]int]int{}
	for _, is := range s.Issues {
		if is.Cycle < lastEnd {
			t.Fatalf("overlapping service at cycle %d (prev ends %d)", is.Cycle, lastEnd)
		}
		svc := is.Elem.Service
		if svc < 1 {
			svc = 1
		}
		lastEnd = is.Cycle + svc
		if prev, ok := lastRow[is.Elem.Row]; ok && is.Cycle-prev < depGap {
			t.Fatalf("row %d issued at %d and %d, gap < %d", is.Elem.Row, prev, is.Cycle, depGap)
		}
		lastRow[is.Elem.Row] = is.Cycle
		issued[[2]int{is.Elem.Row, is.Elem.Col}]++
	}
	for _, e := range elems {
		issued[[2]int{e.Row, e.Col}]--
	}
	for k, v := range issued {
		if v != 0 {
			t.Fatalf("element %v scheduled %+d times vs queue", k, v)
		}
	}
	if s.Makespan != lastEnd {
		t.Fatalf("makespan %d != last completion %d", s.Makespan, lastEnd)
	}
}

func TestPropertyScheduleInvariants(t *testing.T) {
	f := func(seed int64, nIn, rowsIn, windowIn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nIn)%50 + 1
		rows := int(rowsIn)%8 + 1
		window := int(windowIn)%20 + 1
		elems := make([]Elem, n)
		for i := range elems {
			elems[i] = Elem{Row: rng.Intn(rows), Col: i, Service: int64(rng.Intn(3) + 1)}
		}
		sub := t
		checkScheduleInvariants(sub, elems, 2, window)
		return !sub.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWiderWindowNeverSlower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		elems := make([]Elem, n)
		for i := range elems {
			elems[i] = Elem{Row: rng.Intn(5), Col: i, Service: 1}
		}
		narrow := schedulePE(elems, 2, 1, false)
		wide := schedulePE(elems, 2, 32, false)
		return wide.Makespan <= narrow.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePEGRoundRobin(t *testing.T) {
	// Column-wise over 2 PEs: A's diagonal streams rows 0,1,2,3, so
	// rows 0,2 land on PE0 and 1,3 on PE1.
	groups := ScheduleA(sparse.Identity(4), ScheduleOptions{PEGs: 1, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 16, Trace: true})
	g := groups[0]
	for pe, want := range [][]int{{0, 2}, {1, 3}} {
		var rows []int
		for _, is := range g.PEs[pe].Issues {
			rows = append(rows, is.Elem.Row)
		}
		if !slices.Equal(rows, want) {
			t.Errorf("PE%d got rows %v, want %v", pe, rows, want)
		}
	}
	if g.Makespan != 2 {
		t.Errorf("makespan %d, want 2", g.Makespan)
	}
	if g.Capacity != 4 {
		t.Errorf("capacity %d, want 4", g.Capacity)
	}
}

func TestSchedulePEGRowWiseUsesColumnModulo(t *testing.T) {
	// One row over 8 columns, 2 PEGs × 2 PEs, row-wise: the PEG is
	// col % 2 and, within it, the PE is (col / 2) % 2 (§3.2.3).
	row := sparse.NewCOO(1, 8)
	for c := 0; c < 8; c++ {
		row.Append(0, c, 1)
	}
	row.Normalize()
	groups := ScheduleA(row.ToCSR(), ScheduleOptions{PEGs: 2, PEsPerPEG: 2, Traversal: RowWise, DepGap: 2, Window: 16, Trace: true})
	want := [2][2][]int{{{0, 4}, {2, 6}}, {{1, 5}, {3, 7}}}
	for p := range want {
		for pe := range want[p] {
			var cols []int
			for _, is := range groups[p].PEs[pe].Issues {
				cols = append(cols, is.Elem.Col)
			}
			if !slices.Equal(cols, want[p][pe]) {
				t.Errorf("PEG%d.PE%d got columns %v, want %v", p, pe, cols, want[p][pe])
			}
		}
	}
}

// TestScatterTileMatchesNaiveRule checks every arithmetic branch of
// scatterTile against the assignment rule written plainly: row-wise
// designs put an element on PEG col%PEGs and, within it, PE
// (col/PEGs)%PEs; column-wise designs put it on PEG row%PEGs and
// round-robin each PEG's elements over its PEs in stream order. One
// scratch serves every case, so buffer reuse across shapes is covered too.
func TestScatterTileMatchesNaiveRule(t *testing.T) {
	naive := func(elems []Elem, pegs, pes int, trav Traversal) [][]Elem {
		queues := make([][]Elem, pegs*pes)
		rr := make([]int, pegs)
		for _, e := range elems {
			var p, pe int
			if trav == RowWise {
				p, pe = e.Col%pegs, (e.Col/pegs)%pes
			} else {
				p, pe = e.Row%pegs, rr[e.Row%pegs]%pes
				rr[p]++
			}
			queues[p*pes+pe] = append(queues[p*pes+pe], e)
		}
		return queues
	}
	cases := []struct {
		name      string
		pegs, pes int
		trav      Traversal
	}{
		{"row-wise pow2 shift/mask (Design 4)", 16, 8, RowWise},
		{"row-wise pow2, one PE", 8, 1, RowWise},
		{"row-wise Lemire 24 PEGs (Design 3)", 24, 8, RowWise},
		{"col-wise pow2 PEGs (Design 1)", 16, 8, ColWise},
		{"col-wise Lemire 24 PEGs (Design 2)", 24, 8, ColWise},
		{"col-wise one PEG", 1, 2, ColWise},
		{"row-wise % fallback (3 PEs)", 5, 3, RowWise},
		{"col-wise % fallback (3 PEs)", 4, 3, ColWise},
		{"col-wise % fallback (6 PEs, 24 PEGs)", 24, 6, ColWise},
	}
	rng := rand.New(rand.NewSource(470))
	var sc schedScratch
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			n := 1 + rng.Intn(3000)
			elems := make([]Elem, n)
			for i := range elems {
				// Indices span well past the PEG counts and up to 2^24, the
				// A-word format's limit, to exercise the reciprocals.
				elems[i] = Elem{Row: rng.Intn(1 << 24), Col: rng.Intn(1 << 24), Service: int64(1 + rng.Intn(4))}
				if i%3 == 0 {
					elems[i].Row, elems[i].Col = rng.Intn(64), rng.Intn(64)
				}
			}
			want := naive(elems, tc.pegs, tc.pes, tc.trav)
			got := sc.scatterTile(elems, tc.pegs, tc.pes, tc.trav)
			if len(got) != len(want) {
				t.Fatalf("%s: %d queues, want %d", tc.name, len(got), len(want))
			}
			for q := range want {
				if !slices.Equal(got[q], want[q]) {
					t.Errorf("%s (pass %d): queue %d (PEG %d, PE %d) = %d elements, naive rule %d",
						tc.name, pass, q, q/tc.pes, q%tc.pes, len(got[q]), len(want[q]))
					break
				}
			}
		}
	}
}

func TestScheduleAToyMatchesFigure6Semantics(t *testing.T) {
	// A single dense row: column-wise round-robin over 2 PEs alternates
	// PEs, so the 2-cycle same-row dependency never stalls (elements of
	// the row land on alternating PEs 2 apart on each PE).
	row := sparse.NewCOO(1, 6)
	for c := 0; c < 6; c++ {
		row.Append(0, c, 1)
	}
	row.Normalize()
	a := row.ToCSR()
	groups := ScheduleA(a, ScheduleOptions{PEGs: 1, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 16, Trace: true})
	if got := Makespan(groups); got != 5 {
		// PE0 gets cols 0,2,4 (same row): issues at 0,2,4 → ends 5.
		t.Errorf("makespan %d, want 5", got)
	}
}

func TestScheduleADefaults(t *testing.T) {
	a := sparse.Identity(8)
	groups := ScheduleA(a, ScheduleOptions{})
	if len(groups) != 1 {
		t.Fatalf("default PEGs = %d, want 1", len(groups))
	}
	if Makespan(groups) == 0 {
		t.Error("zero makespan for nonempty matrix")
	}
}
