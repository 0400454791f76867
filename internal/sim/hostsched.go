package sim

import (
	"fmt"
	"math"

	"misam/internal/sparse"
)

// Host-side preprocessing (§3.2.1): before a kernel launches, the host
// tiles the operands, coalesces A's nonzeros into 64-bit words ("8
// elements of A are coalesced into a 64-bit word containing row index,
// column index, and value"), and pre-generates scheduling information —
// "a pointer list for each PEG, specifying how many A elements to
// consume per iteration". Design 4 additionally builds the URAM metadata
// that maps each logical B row to its BRAM range (§3.2.4).

// AWord is the packed 64-bit representation of one A nonzero: 24-bit row
// index, 24-bit column index, 16-bit half-precision value.
type AWord uint64

const (
	aWordIndexBits = 24
	aWordIndexMax  = 1<<aWordIndexBits - 1
)

// PackAWord encodes one nonzero. Indices beyond 24 bits are rejected —
// the hardware's word format bounds matrix dimensions at 16.7M.
func PackAWord(row, col int, val float64) (AWord, error) {
	if row < 0 || row > aWordIndexMax || col < 0 || col > aWordIndexMax {
		return 0, fmt.Errorf("sim: index (%d,%d) exceeds the %d-bit A-word format", row, col, aWordIndexBits)
	}
	return AWord(uint64(row)<<40 | uint64(col)<<16 | uint64(Float16FromFloat64(val))), nil
}

// Unpack splits the word back into its fields (the value is the
// half-precision rounding of the original).
func (w AWord) Unpack() (row, col int, val float64) {
	return int(w >> 40 & aWordIndexMax), int(w >> 16 & aWordIndexMax), Float16ToFloat64(uint16(w))
}

// Float16FromFloat64 converts to IEEE 754 binary16 with round-to-nearest
// (ties to even), saturating to ±Inf beyond the format's range.
func Float16FromFloat64(f float64) uint16 {
	b := math.Float64bits(f)
	sign := uint16(b >> 48 & 0x8000)
	exp := int(b>>52&0x7FF) - 1023
	frac := b & 0xFFFFFFFFFFFFF

	switch {
	case exp == 1024: // Inf/NaN
		if frac != 0 {
			return sign | 0x7E00 // quiet NaN
		}
		return sign | 0x7C00
	case exp > 15: // overflow → Inf
		return sign | 0x7C00
	case exp >= -14: // normal
		// 10 fraction bits; round to nearest even on the cut.
		mant := frac >> 42
		rem := frac & ((1 << 42) - 1)
		half := uint64(1) << 41
		if rem > half || (rem == half && mant&1 == 1) {
			mant++ // a carry to 1024 folds into the exponent field below
		}
		return sign | uint16(exp+15)<<10 | uint16(mant)
	case exp >= -24: // subnormal
		shift := uint(42 - exp - 14) // total right shift of the 53-bit mantissa
		full := frac | 1<<52
		mant := full >> shift
		dropped := full & (1<<shift - 1)
		half := uint64(1) << (shift - 1)
		if dropped > half || (dropped == half && mant&1 == 1) {
			mant++
		}
		return sign | uint16(mant)
	default: // underflow → ±0
		return sign
	}
}

// Float16ToFloat64 expands IEEE 754 binary16 to float64.
func Float16ToFloat64(h uint16) float64 {
	sign := uint64(h&0x8000) << 48
	exp := int(h >> 10 & 0x1F)
	frac := uint64(h & 0x3FF)
	switch exp {
	case 0:
		if frac == 0 {
			return math.Float64frombits(sign)
		}
		// Subnormal: value = frac × 2⁻²⁴.
		f := float64(frac) * math.Pow(2, -24)
		if sign != 0 {
			f = -f
		}
		return f
	case 31:
		if frac != 0 {
			return math.NaN()
		}
		return math.Float64frombits(sign | 0x7FF0000000000000)
	default:
		return math.Float64frombits(sign | uint64(exp-15+1023)<<52 | frac<<42)
	}
}

// PEGPointerList is one PEG's pre-generated schedule: entry i is how many
// A elements the group consumes in iteration i (at most one per PE).
type PEGPointerList struct {
	PEG int
	// Counts per iteration; values are in [0, PEsPerPEG].
	Counts []int
	// TotalElements is the sum of Counts.
	TotalElements int
	// Padding counts the idle lanes across iterations — the §3.2.2
	// "inefficient zeros" the denser designs pad with.
	Padding int
}

// URAMEntry maps a logical B row to its packed BRAM range (Design 4's
// metadata, §3.2.4: "metadata is stored in the PEG-local URAMs").
type URAMEntry struct {
	BRow       int
	Start, End int // half-open range of coalesced nonzeros in BRAM
}

// TileSchedule is the host artifact for one B row tile.
type TileSchedule struct {
	Span     Span
	ANNZ     int
	BNNZ     int
	Pointers []PEGPointerList
	// URAM holds Design 4's per-row metadata; nil for dense-B designs.
	URAM []URAMEntry
}

// HostSchedule is the complete preprocessing output for one kernel launch.
type HostSchedule struct {
	Design DesignID
	Tiles  []TileSchedule
	// AWords is the packed A stream (all tiles concatenated, traversal
	// order).
	AWords []AWord
	// HostOps estimates the host work performed: one unit per nonzero
	// touched plus one per pointer-list entry, the cost the Figure 12
	// preprocessing bar measures.
	HostOps int64
}

// BuildHostSchedule runs the host-side preprocessing for a design on A×B.
func BuildHostSchedule(cfg Config, a, b *sparse.CSR) (*HostSchedule, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sim: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows > aWordIndexMax || a.Cols > aWordIndexMax {
		return nil, fmt.Errorf("sim: matrix %dx%d exceeds the A-word index range", a.Rows, a.Cols)
	}
	var tiles []Span
	if cfg.CompressedB {
		tiles = SparsityAwareRowTiles(b, cfg.BRAMCapacityNNZ)
	} else {
		tiles = DenseRowTiles(b.Rows, cfg.BRAMRowsPerTile)
	}
	svc := func(int) int64 { return 1 } // element counts only
	var perTile [][]Elem
	if cfg.SchedulerA == ColWise {
		perTile = binByTileColWise(a.ToCSCPattern(), tiles, svc)
	} else {
		perTile = binByTileRowWise(a, tiles, svc)
	}

	h := &HostSchedule{Design: cfg.ID}
	var sc schedScratch
	for t, span := range tiles {
		ts := TileSchedule{Span: span, ANNZ: len(perTile[t])}
		ts.BNNZ = b.RowPtr[span.Hi] - b.RowPtr[span.Lo]

		// Pack A words in traversal order.
		for _, e := range perTile[t] {
			w, err := PackAWord(e.Row, e.Col, valueAt(a, e.Row, e.Col))
			if err != nil {
				return nil, err
			}
			h.AWords = append(h.AWords, w)
		}
		h.HostOps += int64(len(perTile[t]))

		// Pointer lists per PEG, from the tile engine's per-(PEG, PE)
		// queues grouped by PEG.
		queues := sc.scatterTile(perTile[t], cfg.PEG, cfg.PEsPerPEG, cfg.SchedulerA)
		for p := 0; p < cfg.PEG; p++ {
			pl := PEGPointerList{PEG: p}
			for _, q := range queues[p*cfg.PEsPerPEG : (p+1)*cfg.PEsPerPEG] {
				pl.TotalElements += len(q)
			}
			remaining := pl.TotalElements
			for remaining > 0 {
				n := cfg.PEsPerPEG
				if remaining < n {
					pl.Padding += n - remaining
					n = remaining
				}
				pl.Counts = append(pl.Counts, n)
				remaining -= n
			}
			h.HostOps += int64(len(pl.Counts))
			ts.Pointers = append(ts.Pointers, pl)
		}

		// Design 4 URAM metadata: BRAM offsets of each packed B row.
		if cfg.CompressedB {
			offset := 0
			for r := span.Lo; r < span.Hi; r++ {
				n := b.RowNNZ(r)
				ts.URAM = append(ts.URAM, URAMEntry{BRow: r, Start: offset, End: offset + n})
				offset += n
			}
			h.HostOps += int64(span.Rows())
		}
		h.Tiles = append(h.Tiles, ts)
	}
	return h, nil
}

// valueAt reads A[r,c]; BuildHostSchedule only queries existing nonzeros.
func valueAt(a *sparse.CSR, r, c int) float64 { return a.At(r, c) }

// Validate cross-checks the schedule against its operands: every nonzero
// packed exactly once, pointer lists covering every element, URAM ranges
// contiguous.
func (h *HostSchedule) Validate(a *sparse.CSR) error {
	if len(h.AWords) != a.NNZ() {
		return fmt.Errorf("sim: schedule packs %d words for %d nonzeros", len(h.AWords), a.NNZ())
	}
	total := 0
	for ti, ts := range h.Tiles {
		tileTotal := 0
		for _, pl := range ts.Pointers {
			sum := 0
			for _, c := range pl.Counts {
				if c < 0 {
					return fmt.Errorf("sim: tile %d PEG %d has negative count %d", ti, pl.PEG, c)
				}
				sum += c
			}
			if sum != pl.TotalElements {
				return fmt.Errorf("sim: tile %d PEG %d counts sum %d != total %d", ti, pl.PEG, sum, pl.TotalElements)
			}
			tileTotal += sum
		}
		if tileTotal != ts.ANNZ {
			return fmt.Errorf("sim: tile %d pointer lists cover %d of %d elements", ti, tileTotal, ts.ANNZ)
		}
		total += tileTotal
		prevEnd := 0
		for _, u := range ts.URAM {
			if u.Start != prevEnd || u.End < u.Start {
				return fmt.Errorf("sim: tile %d URAM entry for row %d not contiguous", ti, u.BRow)
			}
			prevEnd = u.End
		}
		if len(ts.URAM) > 0 && prevEnd != ts.BNNZ {
			return fmt.Errorf("sim: tile %d URAM covers %d of %d B nonzeros", ti, prevEnd, ts.BNNZ)
		}
	}
	if total != a.NNZ() {
		return fmt.Errorf("sim: schedule covers %d of %d nonzeros", total, a.NNZ())
	}
	return nil
}

// Iterations reports the total iteration count across tiles for one PEG —
// how long its pointer list is.
func (h *HostSchedule) Iterations(peg int) int {
	n := 0
	for _, ts := range h.Tiles {
		if peg < len(ts.Pointers) {
			n += len(ts.Pointers[peg].Counts)
		}
	}
	return n
}

// PaddingFraction reports the fraction of issued lanes that were padding
// across the whole schedule (1 − occupancy).
func (h *HostSchedule) PaddingFraction() float64 {
	var pad, slots int
	for _, ts := range h.Tiles {
		for _, pl := range ts.Pointers {
			pad += pl.Padding
			slots += pl.TotalElements + pl.Padding
		}
	}
	if slots == 0 {
		return 0
	}
	return float64(pad) / float64(slots)
}
