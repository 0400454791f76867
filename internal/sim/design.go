// Package sim is a cycle-level simulator of the four Misam FPGA designs
// (§3.2, Table 1). It models the mechanisms the paper identifies as the
// sources of performance differences between designs:
//
//   - HBM channel bandwidth for reading A and B and writing C, with the
//     paper's coalescing rules (8 packed A/COO elements per read, 16 FP32
//     dense-B values per read).
//   - The PEG/PE scheduling discipline of Figure 6: round-robin work
//     assignment, a 2-cycle load/store dependency between updates to the
//     same output row on a PE, and greedy bubble-filling by interleaving
//     rows within a bounded scheduling window.
//   - Column-wise (Designs 1, 2, 4) versus row-wise (Design 3) traversal
//     of A.
//   - B tiling: dense row tiles sized by BRAM capacity for SpMM designs,
//     and Design 4's sparsity-aware packing of compressed B rows.
//
// The paper's own training data comes from an analogous simulator built
// from HLS reports and profiling runs (§4); this package is the synthetic
// equivalent of that substrate.
package sim

import "fmt"

// DesignID identifies one of the four Misam designs.
type DesignID int

const (
	Design1 DesignID = iota
	Design2
	Design3
	Design4
	NumDesigns
)

// String returns the paper's design name.
func (d DesignID) String() string {
	if d >= 0 && d < NumDesigns {
		return fmt.Sprintf("Design %d", int(d)+1)
	}
	return fmt.Sprintf("DesignID(%d)", int(d))
}

// Traversal selects how the scheduler walks matrix A (Table 1's
// "Scheduler A" row).
type Traversal int

const (
	// ColWise traverses A column by column, assigning elements to PEs
	// round-robin (Designs 1, 2, 4).
	ColWise Traversal = iota
	// RowWise traverses A row by row, assigning each element to PE
	// column_index % PE count (Design 3).
	RowWise
)

// String names the traversal as in Table 1.
func (t Traversal) String() string {
	if t == ColWise {
		return "Col"
	}
	return "Row"
}

// Config is one design's parameter set (Table 1) plus the scheduling
// constants shared by all designs.
type Config struct {
	Name string
	ID   DesignID

	ChA int // HBM channels reading A
	ChB int // HBM channels reading B
	ChC int // HBM channels writing C
	PEG int // processing element groups ("N" in Table 1)
	ACC int // accumulator groups ("M" in Table 1)

	PEsPerPEG   int       // 4 in all Misam designs (§3.2.1)
	SchedulerA  Traversal // Col or Row traversal of A
	CompressedB bool      // Design 4 stores B in 64-bit COO (Table 1 "Format B")

	// FreqMHz is the post-place-and-route clock from Table 2.
	FreqMHz float64

	// DepGapCycles is the load/store dependency distance, in issue slots,
	// between two updates of the same output row on a PE. Figure 6's toy
	// example uses 2; the production designs use 4, the depth of a
	// pipelined FP32 accumulator on UltraScale+ fabric.
	DepGapCycles int64
	// WindowSize bounds how far the scheduler looks ahead in a PE's
	// element queue when filling bubbles. Real schedulers have a finite
	// reorder window; 16 keeps simulation O(nnz·W).
	WindowSize int

	// BRAMRowsPerTile is the dense row-tile height for B (4096 entries,
	// §3.2.1). Design 4 instead packs compressed rows up to
	// BRAMCapacityNNZ nonzeros per tile (§3.2.4).
	BRAMRowsPerTile int
	BRAMCapacityNNZ int

	// SIMDWidth is the PE vector width: partial results accumulate into
	// "eight-element vectors" (§3.2.1).
	SIMDWidth int

	// AElemsPerRead / BDenseElemsPerRead / BCOOElemsPerRead implement the
	// coalescing rules of §3.2.1 and §3.2.4 (per channel, per cycle).
	AElemsPerRead      int
	BDenseElemsPerRead int
	BCOOElemsPerRead   int
	CElemsPerWrite     int
}

// PEs reports the total processing element count of the design.
func (c Config) PEs() int { return c.PEG * c.PEsPerPEG }

// Validate rejects configurations whose parameters would corrupt the cost
// model: every channel count, group size, SIMD width, coalescing factor
// and the clock feed divisions, so a zero (e.g. a hand-built Config that
// forgot common()'s constants) must fail loudly instead of producing
// quietly wrong cycle counts. Every simulation validates first; ceilDiv64
// panics as a backstop for paths that skip it.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ChA", c.ChA}, {"ChB", c.ChB}, {"ChC", c.ChC},
		{"PEG", c.PEG}, {"ACC", c.ACC}, {"PEsPerPEG", c.PEsPerPEG},
		{"SIMDWidth", c.SIMDWidth},
		{"AElemsPerRead", c.AElemsPerRead},
		{"BDenseElemsPerRead", c.BDenseElemsPerRead},
		{"BCOOElemsPerRead", c.BCOOElemsPerRead},
		{"CElemsPerWrite", c.CElemsPerWrite},
	} {
		if f.v <= 0 {
			return fmt.Errorf("sim: config %q: %s must be positive, got %d", c.Name, f.name, f.v)
		}
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("sim: config %q: FreqMHz must be positive, got %g", c.Name, c.FreqMHz)
	}
	if c.DepGapCycles < 0 {
		return fmt.Errorf("sim: config %q: DepGapCycles must be nonnegative, got %d", c.Name, c.DepGapCycles)
	}
	return nil
}

// common returns the constants shared by all four designs.
func common() Config {
	return Config{
		PEsPerPEG:          4,
		DepGapCycles:       4,
		WindowSize:         16,
		BRAMRowsPerTile:    4096,
		BRAMCapacityNNZ:    4096 * 8,
		SIMDWidth:          8,
		AElemsPerRead:      8,
		BDenseElemsPerRead: 16,
		BCOOElemsPerRead:   8,
		CElemsPerWrite:     16,
	}
}

// Configs returns the Table 1 parameterizations of all four designs.
func Configs() [NumDesigns]Config {
	d1 := common()
	d1.Name, d1.ID = "Design 1", Design1
	d1.ChA, d1.ChB, d1.ChC = 8, 4, 8
	d1.PEG, d1.ACC = 16, 16
	d1.SchedulerA = ColWise
	d1.FreqMHz = 284.02

	d2 := common()
	d2.Name, d2.ID = "Design 2", Design2
	d2.ChA, d2.ChB, d2.ChC = 12, 4, 12
	d2.PEG, d2.ACC = 24, 24
	d2.SchedulerA = ColWise
	d2.FreqMHz = 290.3

	d3 := d2
	d3.Name, d3.ID = "Design 3", Design3
	d3.SchedulerA = RowWise

	d4 := common()
	d4.Name, d4.ID = "Design 4", Design4
	d4.ChA, d4.ChB, d4.ChC = 8, 8, 4
	d4.PEG, d4.ACC = 16, 16
	d4.SchedulerA = ColWise
	d4.CompressedB = true
	d4.FreqMHz = 287.4

	return [NumDesigns]Config{d1, d2, d3, d4}
}

// GetConfig returns the Table 1 configuration for a design.
func GetConfig(id DesignID) Config {
	if id < 0 || id >= NumDesigns {
		panic(fmt.Sprintf("sim: invalid design %d", id))
	}
	return Configs()[id]
}

// AllDesigns lists the design IDs in order.
var AllDesigns = []DesignID{Design1, Design2, Design3, Design4}

// SpMMDesigns are the designs assuming an uncompressed (dense-format) B.
var SpMMDesigns = []DesignID{Design1, Design2, Design3}

// SharedBitstream reports whether two designs share one bitstream and so
// can be swapped without reconfiguration. "Designs 2 and 3 share the same
// bitstream, differing only in how the host schedules access to HBM
// channels" (§4).
func SharedBitstream(a, b DesignID) bool {
	if a == b {
		return true
	}
	return (a == Design2 && b == Design3) || (a == Design3 && b == Design2)
}
