package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"misam/internal/sparse"
)

// goldenPairs builds the two golden workloads: a moderately sparse A
// against a dense 64-column B ("msxd") and against a highly sparse B
// ("hs").
func goldenPairs() []struct {
	name string
	a, b *sparse.CSR
} {
	rng := rand.New(rand.NewSource(1234))
	a := sparse.Uniform(rng, 1000, 1000, 0.01)
	b := sparse.DenseRandom(rng, 1000, 64)
	hs := sparse.Uniform(rng, 1000, 1000, 0.003)
	return []struct {
		name string
		a, b *sparse.CSR
	}{{"msxd", a, b}, {"hs", a, hs}}
}

// goldenResults pins every Result field of the four designs on the golden
// pairs as constants. The simulator is deterministic, so any change to the
// element→queue assignment, the PE scheduler or the cost model moves at
// least one of them. If a deliberate model change shifts these numbers,
// re-record them and re-run the calibration probes in EXPERIMENTS.md — the
// point is that such shifts never happen silently.
var goldenResults = map[string][NumDesigns]Result{
	"msxd": {
		{Design: 0, Cycles: 1800, Seconds: 6.337581860432364e-06, ComputeCycles: 1280, AReadCycles: 157, BReadCycles: 1000, BroadcastCycles: 16, CWriteCycles: 500, Tiles: 1, Bubbles: 88, PEUtilization: 0.9765625, Flops: 640000, COutputs: 64000},
		{Design: 1, Cycles: 1362, Seconds: 4.691698243196693e-06, ComputeCycles: 872, AReadCycles: 105, BReadCycles: 1000, BroadcastCycles: 24, CWriteCycles: 334, Tiles: 1, Bubbles: 272, PEUtilization: 0.9556574923547401, Flops: 640000, COutputs: 64000},
		{Design: 2, Cycles: 3991, Seconds: 1.3747847054770927e-05, ComputeCycles: 3629, AReadCycles: 105, BReadCycles: 1000, BroadcastCycles: 24, CWriteCycles: 334, Tiles: 1, Bubbles: 232, PEUtilization: 0.22963167080003674, Flops: 640000, COutputs: 64000},
		{Design: 3, Cycles: 2424, Seconds: 8.434237995824634e-06, ComputeCycles: 1384, AReadCycles: 157, BReadCycles: 1000, BroadcastCycles: 32, CWriteCycles: 1000, Tiles: 2, Bubbles: 128, PEUtilization: 0.903179190751445, Flops: 640000, COutputs: 64000},
	},
	"hs": {
		{Design: 0, Cycles: 20255, Seconds: 7.131540032392085e-05, ComputeCycles: 20000, AReadCycles: 157, BReadCycles: 15625, BroadcastCycles: 16, CWriteCycles: 235, Tiles: 1, Bubbles: 1375, PEUtilization: 0.9765625, Flops: 30000, COutputs: 30000},
		{Design: 1, Cycles: 15810, Seconds: 5.4460902514640025e-05, ComputeCycles: 13625, AReadCycles: 105, BReadCycles: 15625, BroadcastCycles: 24, CWriteCycles: 157, Tiles: 1, Bubbles: 4250, PEUtilization: 0.9556574923547401, Flops: 30000, COutputs: 30000},
		{Design: 2, Cycles: 56883, Seconds: 0.00019594557354460902, ComputeCycles: 56698, AReadCycles: 105, BReadCycles: 15625, BroadcastCycles: 24, CWriteCycles: 157, Tiles: 1, Bubbles: 3625, PEUtilization: 0.22965242748127507, Flops: 30000, COutputs: 30000},
		{Design: 3, Cycles: 649, Seconds: 2.2581767571329157e-06, ComputeCycles: 160, AReadCycles: 157, BReadCycles: 47, BroadcastCycles: 16, CWriteCycles: 469, Tiles: 1, Bubbles: 11, PEUtilization: 0.9765625, Flops: 30000, COutputs: 30000},
	},
}

// goldenHost pins BuildHostSchedule's host-op count, lane padding and
// per-tile, per-PEG element counts on the golden pairs.
var goldenHost = map[string][NumDesigns]string{
	"msxd": {
		"ops=12504 pad=0.001597444089456869 pegs=630,630,630,630,630,630,630,630,620,620,620,620,620,620,620,620",
		"ops=12504 pad=0.001597444089456869 pegs=420,420,420,420,420,420,420,420,420,420,420,420,420,420,420,420,410,410,410,410,410,410,410,410",
		"ops=12511 pad=0.004380724810832338 pegs=439,426,451,404,417,360,445,413,403,417,450,414,439,416,423,413,417,414,391,377,405,385,472,409",
		"ops=13515 pad=0.005964214711729622 pegs=306,313,329,350,357,324,328,316,321,314,338,322,298,333,317,295,324,317,301,280,273,306,302,314,299,306,282,298,322,287,303,325",
	},
	"hs": {
		"ops=12504 pad=0.001597444089456869 pegs=630,630,630,630,630,630,630,630,620,620,620,620,620,620,620,620",
		"ops=12504 pad=0.001597444089456869 pegs=420,420,420,420,420,420,420,420,420,420,420,420,420,420,420,420,410,410,410,410,410,410,410,410",
		"ops=12511 pad=0.004380724810832338 pegs=439,426,451,404,417,360,445,413,403,417,450,414,439,416,423,413,417,414,391,377,405,385,472,409",
		"ops=13504 pad=0.001597444089456869 pegs=630,630,630,630,630,630,630,630,620,620,620,620,620,620,620,620",
	},
}

// TestGoldenCycleCounts checks the serial reference, the engine (serial
// and forced-parallel tile pools), the single-design path and the pruned
// tier against the pinned Results.
func TestGoldenCycleCounts(t *testing.T) {
	old := numTileWorkers
	defer func() { numTileWorkers = old }()
	ctx := context.Background()
	for _, pair := range goldenPairs() {
		want := goldenResults[pair.name]
		serial, err := SimulateAllSerial(pair.a, pair.b)
		if err != nil {
			t.Fatal(err)
		}
		if serial != want {
			t.Errorf("golden %s: serial reference moved:\ngot:  %+v\nwant: %+v", pair.name, serial, want)
		}
		best := BestDesign(want)
		for _, workers := range []int{1, 4} {
			numTileWorkers = func() int { return workers }
			w, err := NewWorkload(pair.a, pair.b)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := w.SimulateAllCtx(ctx); err != nil || got != want {
				t.Errorf("golden %s (workers=%d): SimulateAllCtx = %+v, %v\nwant: %+v", pair.name, workers, got, err, want)
			}
			for _, id := range AllDesigns {
				if got, err := w.SimulateCtx(ctx, GetConfig(id)); err != nil || got != want[id] {
					t.Errorf("golden %s/%v (workers=%d): SimulateCtx = %+v, %v", pair.name, id, workers, got, err)
				}
			}
			// The pruned tier must reproduce the winner bit for bit on
			// a fresh workload (no exact results cached in its tile memo).
			wp, err := NewWorkload(pair.a, pair.b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wp.SimulateAllPrunedCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if gotBest := BestDesign(got); gotBest != best {
				t.Errorf("golden %s (workers=%d): pruned argmin %v != %v", pair.name, workers, gotBest, best)
			} else if got[best] != want[best] {
				t.Errorf("golden %s (workers=%d): pruned winner not bit-identical:\ngot:  %+v\nwant: %+v",
					pair.name, workers, got[best], want[best])
			}
		}
		for _, id := range AllDesigns {
			h, err := BuildHostSchedule(GetConfig(id), pair.a, pair.b)
			if err != nil {
				t.Fatal(err)
			}
			var pegs []string
			for _, ts := range h.Tiles {
				for _, pl := range ts.Pointers {
					pegs = append(pegs, fmt.Sprint(pl.TotalElements))
				}
			}
			got := fmt.Sprintf("ops=%d pad=%v pegs=%s", h.HostOps, h.PaddingFraction(), strings.Join(pegs, ","))
			if got != goldenHost[pair.name][id] {
				t.Errorf("golden %s/%v host schedule moved:\ngot:  %s\nwant: %s", pair.name, id, got, goldenHost[pair.name][id])
			}
		}
	}

	// Calibration facts the constants above encode, spelled out so a
	// deliberate re-recording cannot silently invert them.
	ms, hs := goldenResults["msxd"], goldenResults["hs"]
	if ms[Design2].Seconds >= ms[Design1].Seconds {
		t.Error("calibration drift: D2 no longer beats D1 on the MS×D anchor")
	}
	if hs[Design4].Seconds >= hs[Design1].Seconds {
		t.Error("calibration drift: D4 no longer beats D1 on the HS×HS anchor")
	}
	if ms[Design4].Seconds <= hs[Design4].Seconds {
		t.Error("calibration drift: D4 on dense B should cost more than on sparse B")
	}
}

// goldenToys pins ScheduleA's per-PE issue order (cycle@(row,col)), each
// PE's makespan and each group's [makespan busy bubbles capacity] on the
// Figure 6 toys: the four-element toy of traceToy and the imbalanced-row
// matrix (c) of the Figure 6 experiment, under the experiment's three
// design shapes.
var goldenToys = []struct {
	imbalanced bool
	opt        ScheduleOptions
	want       string
}{
	{false, ScheduleOptions{PEGs: 1, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 8},
		"PEG0.PE0: 0@(0,0) 2@(0,2) |3;PEG0.PE1: 0@(1,1) 1@(2,3) |2; [3 4 1 6]\n"},
	{false, ScheduleOptions{PEGs: 1, PEsPerPEG: 2, Traversal: RowWise, DepGap: 2, Window: 8},
		"PEG0.PE0: 0@(0,0) 2@(0,2) |3;PEG0.PE1: 0@(1,1) 1@(2,3) |2; [3 4 1 6]\n"},
	{false, ScheduleOptions{PEGs: 2, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 16},
		"PEG0.PE0: 0@(0,0) 1@(2,3) |2;PEG0.PE1: 0@(0,2) |1; [2 3 0 4]\n" +
			"PEG1.PE0: 0@(1,1) |1;PEG1.PE1: |0; [1 1 0 2]\n"},
	{false, ScheduleOptions{PEGs: 2, PEsPerPEG: 2, Traversal: RowWise, DepGap: 2, Window: 16},
		"PEG0.PE0: 0@(0,0) |1;PEG0.PE1: 0@(0,2) |1; [1 2 0 2]\n" +
			"PEG1.PE0: 0@(1,1) |1;PEG1.PE1: 0@(2,3) |1; [1 2 0 2]\n"},
	{true, ScheduleOptions{PEGs: 1, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 16},
		"PEG0.PE0: 0@(2,0) 2@(2,1) 4@(2,3) 6@(2,4) 8@(2,5) 10@(2,7) |11;PEG0.PE1: 0@(0,1) 1@(2,2) 2@(7,3) 3@(5,4) 4@(2,6) |5; [11 11 5 22]\n"},
	{true, ScheduleOptions{PEGs: 2, PEsPerPEG: 2, Traversal: ColWise, DepGap: 2, Window: 16},
		"PEG0.PE0: 0@(2,0) 2@(2,1) 4@(2,3) 6@(2,5) 8@(2,7) |9;PEG0.PE1: 0@(0,1) 1@(2,2) 3@(2,4) 5@(2,6) |6; [9 9 6 18]\n" +
			"PEG1.PE0: 0@(7,3) |1;PEG1.PE1: 0@(5,4) |1; [1 2 0 2]\n"},
	{true, ScheduleOptions{PEGs: 2, PEsPerPEG: 2, Traversal: RowWise, DepGap: 2, Window: 16},
		"PEG0.PE0: 0@(2,0) 1@(5,4) 2@(2,4) |3;PEG0.PE1: 0@(2,2) 2@(2,6) |3; [3 5 1 6]\n" +
			"PEG1.PE0: 0@(0,1) 1@(2,1) 3@(2,5) |4;PEG1.PE1: 0@(2,3) 1@(7,3) 2@(2,7) |3; [4 6 1 8]\n"},
}

func TestGoldenScheduleAIssueOrder(t *testing.T) {
	toy := sparse.NewCOO(4, 4)
	toy.Append(0, 0, 1)
	toy.Append(0, 2, 1)
	toy.Append(1, 1, 1)
	toy.Append(2, 3, 1)
	toy.Normalize()
	imb := sparse.NewCOO(8, 8)
	for c := 0; c < 8; c++ {
		imb.Append(2, c, 1)
	}
	imb.Append(0, 1, 1)
	imb.Append(5, 4, 1)
	imb.Append(7, 3, 1)
	imb.Normalize()
	for i, g := range goldenToys {
		a := toy.ToCSR()
		if g.imbalanced {
			a = imb.ToCSR()
		}
		opt := g.opt
		opt.Trace = true
		if got := issueOrder(ScheduleA(a, opt)); got != g.want {
			t.Errorf("toy %d %+v: issue order moved:\ngot:\n%swant:\n%s", i, g.opt, got, g.want)
		}
	}
}

// issueOrder renders traced PEG schedules as one line per PEG.
func issueOrder(groups []PEGSchedule) string {
	var sb strings.Builder
	for p, g := range groups {
		for pe, ps := range g.PEs {
			fmt.Fprintf(&sb, "PEG%d.PE%d:", p, pe)
			for _, is := range ps.Issues {
				fmt.Fprintf(&sb, " %d@(%d,%d)", is.Cycle, is.Elem.Row, is.Elem.Col)
			}
			fmt.Fprintf(&sb, " |%d;", ps.Makespan)
		}
		fmt.Fprintf(&sb, " [%d %d %d %d]\n", g.Makespan, g.Busy, g.Bubbles, g.Capacity)
	}
	return sb.String()
}
