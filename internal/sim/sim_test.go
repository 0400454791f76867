package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"misam/internal/sparse"
	"misam/internal/spgemm"
)

// simulateDesign runs one design on a fresh workload of A×B.
func simulateDesign(id DesignID, a, b *sparse.CSR) (Result, error) {
	w, err := NewWorkload(a, b)
	if err != nil {
		return Result{}, err
	}
	return w.SimulateCtx(context.Background(), GetConfig(id))
}

// simulateAll runs every design exactly on a fresh workload of A×B.
func simulateAll(a, b *sparse.CSR) ([NumDesigns]Result, error) {
	w, err := NewWorkload(a, b)
	if err != nil {
		return [NumDesigns]Result{}, err
	}
	return w.SimulateAllCtx(context.Background())
}

func TestConfigsMatchTable1(t *testing.T) {
	cfgs := Configs()
	cases := []struct {
		id            DesignID
		chA, chB, chC int
		peg           int
		trav          Traversal
		compressed    bool
	}{
		{Design1, 8, 4, 8, 16, ColWise, false},
		{Design2, 12, 4, 12, 24, ColWise, false},
		{Design3, 12, 4, 12, 24, RowWise, false},
		{Design4, 8, 8, 4, 16, ColWise, true},
	}
	for _, c := range cases {
		cfg := cfgs[c.id]
		if cfg.ChA != c.chA || cfg.ChB != c.chB || cfg.ChC != c.chC {
			t.Errorf("%v channels = %d/%d/%d, want %d/%d/%d", c.id, cfg.ChA, cfg.ChB, cfg.ChC, c.chA, c.chB, c.chC)
		}
		if cfg.PEG != c.peg || cfg.ACC != c.peg {
			t.Errorf("%v PEG/ACC = %d/%d, want %d", c.id, cfg.PEG, cfg.ACC, c.peg)
		}
		if cfg.SchedulerA != c.trav {
			t.Errorf("%v traversal = %v, want %v", c.id, cfg.SchedulerA, c.trav)
		}
		if cfg.CompressedB != c.compressed {
			t.Errorf("%v compressedB = %v", c.id, cfg.CompressedB)
		}
		if cfg.PEs() != c.peg*4 {
			t.Errorf("%v PEs = %d, want %d", c.id, cfg.PEs(), c.peg*4)
		}
	}
}

func TestSharedBitstream(t *testing.T) {
	if !SharedBitstream(Design2, Design3) || !SharedBitstream(Design3, Design2) {
		t.Error("Designs 2 and 3 must share a bitstream (§4)")
	}
	if SharedBitstream(Design1, Design2) || SharedBitstream(Design1, Design4) {
		t.Error("distinct designs reported as shared")
	}
	if !SharedBitstream(Design1, Design1) {
		t.Error("a design trivially shares its own bitstream")
	}
}

func TestSimulateDimensionMismatch(t *testing.T) {
	a := sparse.Identity(4)
	b := sparse.Identity(5)
	if _, err := simulateDesign(Design1, a, b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestSimulateBasicSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := sparse.Uniform(rng, 300, 300, 0.02)
	b := sparse.DenseRandom(rng, 300, 64)
	for _, id := range AllDesigns {
		r, err := simulateDesign(id, a, b)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if r.Cycles <= 0 || r.Seconds <= 0 {
			t.Errorf("%v: nonpositive latency %d cycles", id, r.Cycles)
		}
		if r.PEUtilization < 0 || r.PEUtilization > 1 {
			t.Errorf("%v: utilization %v outside [0,1]", id, r.PEUtilization)
		}
		if r.Flops != int64(spgemm.FlopCount(a, b)) {
			t.Errorf("%v: flops %d, want %d", id, r.Flops, spgemm.FlopCount(a, b))
		}
		if r.Throughput() <= 0 {
			t.Errorf("%v: nonpositive throughput", id)
		}
	}
}

func TestSimulateEmptyProduct(t *testing.T) {
	a := sparse.NewCOO(10, 10).ToCSR()
	b := sparse.NewCOO(10, 10).ToCSR()
	r, err := simulateDesign(Design4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeCycles != 0 || r.Flops != 0 {
		t.Errorf("empty product should do no compute: %+v", r)
	}
}

// TestDesign1BeatsDesign2OnTinySparse reproduces the §3.2.2 claim:
// "Design 1 is more load-balanced and efficient than Design 2 ... when
// operating on highly sparse matrices" because D2's extra PEs go unfilled.
func TestDesign1BeatsDesign2OnTinySparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Small, uniformly very sparse A with a narrow B: each row provides
	// insufficient work for Design 2's larger PE set, so its schedule
	// cannot fill dependency bubbles and pads with zeros (§3.2.2).
	a := sparse.Uniform(rng, 300, 300, 0.004)
	b := sparse.DenseRandom(rng, 300, 8)
	r1, err := simulateDesign(Design1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := simulateDesign(Design2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PEUtilization <= r2.PEUtilization {
		t.Errorf("D1 utilization %.3f not above D2 %.3f on sparse input",
			r1.PEUtilization, r2.PEUtilization)
	}
	if r1.Seconds >= r2.Seconds {
		t.Errorf("D1 (%.8fs) not faster than D2 (%.8fs) on tiny sparse input",
			r1.Seconds, r2.Seconds)
	}
}

// TestDesign2BeatsDesign1OnLargeDenser reproduces §3.2.2: for larger,
// denser matrices D2's extra memory channels and PEs win.
func TestDesign2BeatsDesign1OnLargeDenser(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := sparse.Uniform(rng, 4000, 4000, 0.02)
	b := sparse.DenseRandom(rng, 4000, 128)
	r1, err := simulateDesign(Design1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := simulateDesign(Design2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seconds >= r1.Seconds {
		t.Errorf("D2 (%.6fs) not faster than D1 (%.6fs) on large denser input",
			r2.Seconds, r1.Seconds)
	}
}

// TestDesign3WinsOnImbalance reproduces §3.2.3: row-wise traversal with
// column-modulo assignment spreads a heavy row across PEs, beating the
// column-wise designs when A_load_imbalance_row is high.
func TestDesign3WinsOnImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := sparse.Imbalanced(rng, 3000, 3000, 30000, 0.01, 0.9)
	b := sparse.DenseRandom(rng, 3000, 32)
	r2, err := simulateDesign(Design2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := simulateDesign(Design3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r3.ComputeCycles >= r2.ComputeCycles {
		t.Errorf("D3 compute %d not below D2 %d on imbalanced input",
			r3.ComputeCycles, r2.ComputeCycles)
	}
}

// TestDesign4WinsOnHighlySparseB reproduces §3.2.4: compressed B halves
// read bandwidth per element, "making compression worthwhile only when
// B's sparsity is high".
func TestDesign4WinsOnHighlySparseB(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sparse.Uniform(rng, 4000, 4000, 0.002)
	bSparse := sparse.Uniform(rng, 4000, 4000, 0.0005)
	r1, err := simulateDesign(Design1, a, bSparse)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := simulateDesign(Design4, a, bSparse)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Seconds >= r1.Seconds {
		t.Errorf("D4 (%.6fs) not faster than D1 (%.6fs) on HS×HS", r4.Seconds, r1.Seconds)
	}

	// And the converse: for a dense B, the uncompressed designs win.
	bDense := sparse.DenseRandom(rng, 1000, 256)
	aSmall := sparse.Uniform(rng, 1000, 1000, 0.01)
	d1, err := simulateDesign(Design1, aSmall, bDense)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := simulateDesign(Design4, aSmall, bDense)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Seconds >= d4.Seconds {
		t.Errorf("D1 (%.6fs) not faster than D4 (%.6fs) on dense B", d1.Seconds, d4.Seconds)
	}
}

func TestSimulateAllAndBestDesign(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := sparse.Uniform(rng, 500, 500, 0.01)
	b := sparse.DenseRandom(rng, 500, 64)
	results, err := simulateAll(a, b)
	if err != nil {
		t.Fatal(err)
	}
	best := BestDesign(results)
	for _, id := range AllDesigns {
		if results[id].Seconds < results[best].Seconds {
			t.Errorf("BestDesign picked %v but %v is faster", best, id)
		}
	}
}

func TestPropertyCyclesCoverBreakdown(t *testing.T) {
	f := func(seed int64, dIn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		id := AllDesigns[int(dIn)%len(AllDesigns)]
		a := sparse.Uniform(rng, 200, 200, 0.05)
		b := sparse.Uniform(rng, 200, 50, 0.3)
		r, err := simulateDesign(id, a, b)
		if err != nil {
			return false
		}
		// Total must cover compute and write-back, and at least the
		// largest single component.
		if r.Cycles < r.ComputeCycles+r.CWriteCycles {
			return false
		}
		if r.Cycles < r.BReadCycles || r.Cycles < r.AReadCycles {
			return false
		}
		return r.Bubbles >= 0 && r.Tiles >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGetConfigPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GetConfig accepted invalid id")
		}
	}()
	GetConfig(DesignID(17))
}

func TestTraversalAndDesignStrings(t *testing.T) {
	if ColWise.String() != "Col" || RowWise.String() != "Row" {
		t.Error("traversal names should match Table 1")
	}
	if Design1.String() != "Design 1" || Design4.String() != "Design 4" {
		t.Error("design names wrong")
	}
	if DesignID(9).String() != "DesignID(9)" {
		t.Error("invalid design formatting wrong")
	}
}
