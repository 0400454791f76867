package sim

import (
	"sync"
	"sync/atomic"

	"misam/internal/sparse"
)

// TileCache memoizes per-tile schedule outcomes across simulations. The
// expensive unit of the exact tier is scheduling one tile's element stream
// onto a design's PE array; the result — the (busy, bubbles, compute)
// triple — depends only on the stream's schedule-relevant content and the
// design's schedule-relevant parameters, never on which workload the tile
// came from. Keying by a content hash therefore lets the background
// verifier's re-simulation of a just-served workload, and near-duplicate
// tiles inside one workload, reuse schedules instead of recomputing them.
//
// The table is direct-mapped over a power-of-two slot count derived from a
// byte budget, with striped mutexes and overwrite-on-collision eviction:
// a fixed-size array of 40-byte slots, no linked lists, no per-entry
// allocation, so the hit and store paths are allocation-free. A slot with
// key (0, 0) is empty; the hash never produces that pair (it is perturbed
// if computed).
type TileCache struct {
	mask  uint64
	slots []tileSlot
	locks [tileStripes]sync.Mutex

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64

	// Slow-tier instrumentation that rides along with the cache so one
	// attachable object carries every counter the stats endpoints report.
	boundAborts atomic.Int64
	coarseSkips atomic.Int64
}

type tileSlot struct {
	hi, lo                 uint64
	busy, bubbles, compute int64
}

const (
	tileSlotBytes = 40 // 2 key words + 3 payload words
	tileStripes   = 64 // must be a power of two
	maxTileSlots  = 1 << 26

	// DefaultTileCacheBytes sizes the lazily created per-workload private
	// cache: big enough that every tile of a typical pair fits (near-
	// duplicate tiles inside one workload reuse each other), small enough
	// to be noise next to the workload's own precompute.
	DefaultTileCacheBytes = 64 << 10
)

// NewTileCache returns a tile cache holding the largest power-of-two slot
// count that fits budgetBytes (minimum 64 slots).
func NewTileCache(budgetBytes int64) *TileCache {
	n := int64(64)
	for n*2*tileSlotBytes <= budgetBytes && n < maxTileSlots {
		n *= 2
	}
	return &TileCache{
		mask:  uint64(n - 1),
		slots: make([]tileSlot, n),
	}
}

// lookup returns the memoized triple for key (hi, lo), if present.
func (c *TileCache) lookup(hi, lo uint64) (busy, bubbles, compute int64, ok bool) {
	idx := lo & c.mask
	m := &c.locks[idx&(tileStripes-1)]
	m.Lock()
	s := &c.slots[idx]
	if s.hi == hi && s.lo == lo {
		busy, bubbles, compute = s.busy, s.bubbles, s.compute
		m.Unlock()
		c.hits.Add(1)
		return busy, bubbles, compute, true
	}
	m.Unlock()
	c.misses.Add(1)
	return 0, 0, 0, false
}

// store records the triple for key (hi, lo), overwriting whatever occupied
// the slot (direct-mapped eviction).
func (c *TileCache) store(hi, lo uint64, busy, bubbles, compute int64) {
	idx := lo & c.mask
	m := &c.locks[idx&(tileStripes-1)]
	m.Lock()
	s := &c.slots[idx]
	evict := (s.hi != 0 || s.lo != 0) && (s.hi != hi || s.lo != lo)
	s.hi, s.lo = hi, lo
	s.busy, s.bubbles, s.compute = busy, bubbles, compute
	m.Unlock()
	c.stores.Add(1)
	if evict {
		c.evictions.Add(1)
	}
}

func (c *TileCache) noteBoundAbort() {
	if c != nil {
		c.boundAborts.Add(1)
	}
}

func (c *TileCache) noteCoarseSkip() {
	if c != nil {
		c.coarseSkips.Add(1)
	}
}

// TileCacheStats is a point-in-time snapshot of a TileCache's counters.
type TileCacheStats struct {
	Slots       int     `json:"slots"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Stores      int64   `json:"stores"`
	Evictions   int64   `json:"evictions"`
	HitRate     float64 `json:"hit_rate"`
	BoundAborts int64   `json:"bound_aborts"`
	CoarseSkips int64   `json:"coarse_skips"`
}

// Stats snapshots the cache counters.
func (c *TileCache) Stats() TileCacheStats {
	st := TileCacheStats{
		Slots:       len(c.slots),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stores:      c.stores.Load(),
		Evictions:   c.evictions.Load(),
		BoundAborts: c.boundAborts.Load(),
		CoarseSkips: c.coarseSkips.Load(),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// --- tile-stream hashing ---------------------------------------------------
//
// The key must capture exactly the inputs the schedule depends on and
// nothing more, so that equal keys imply equal (busy, bubbles, compute)
// triples while distinct workloads still share entries:
//
//   - Column-wise designs split elements by Row%PEG, fill PE queues
//     round-robin by stream position, and never merge — Elem.Col cannot
//     affect the schedule, so it is excluded and tiles that differ only in
//     column indices share one entry.
//   - Row-wise designs split by Col%PEG and merge by (row, col/PEG%PEG)
//     pairs, so Row, Col and Service all fold in.
//
// The per-design salt folds every Config field the scheduler reads
// (SchedulerA, PEG, PEsPerPEG, DepGapCycles, WindowSize, ACC) but not
// identity fields like ID or Name, so distinct configs with identical
// scheduling parameters share entries. Tile shape (rows spanned, dense
// tileNNZ) is deliberately NOT hashed: the memoized triple is recombined
// with freshly computed shape-derived terms (aRead, bRead, broadcast) at
// hit time, so two tiles with equal streams but different spans still
// reuse the schedule correctly.
//
// Construction: two polynomial accumulator lanes with distinct odd
// multipliers over per-element compression words, cross-finalized with
// sparse.Mix64 (splitmix64). Polynomial accumulation keeps the per-element cost
// to a few arithmetic ops (the hash runs at lookup time, inside the
// simulation loop), while the 128-bit width makes accidental collisions —
// which would silently corrupt a Result — negligible; FuzzTileStreamHash
// hunts for them anyway.

const (
	tileHashM1 = 0x9e3779b97f4a7c15 // odd golden-ratio multiplier, lane 1
	tileHashM2 = 0xc2b2ae3d27d4eb4f // odd xxhash-style multiplier, lane 2
	tileHashM3 = 0xff51afd7ed558ccd // element compression multiplier
	tileHashM4 = 0xc4ceb9fe1a85ec53 // element compression multiplier
)

// tileSalt derives the per-config hash salt from the schedule-relevant
// Config fields.
func tileSalt(cfg Config) uint64 {
	s := sparse.Mix64(0x6d697361_6d2d7469 ^ uint64(cfg.SchedulerA))
	s = sparse.Mix64(s ^ uint64(cfg.PEG))
	s = sparse.Mix64(s ^ uint64(cfg.PEsPerPEG))
	s = sparse.Mix64(s ^ uint64(cfg.DepGapCycles))
	s = sparse.Mix64(s ^ uint64(cfg.WindowSize))
	s = sparse.Mix64(s ^ uint64(cfg.ACC))
	return s
}

// hashTileElems hashes a tile's element stream under a config salt,
// returning a 128-bit key that is never (0, 0).
func hashTileElems(elems []Elem, rowWise bool, salt uint64) (hi, lo uint64) {
	lo = salt ^ (uint64(len(elems)) * tileHashM1)
	hi = sparse.Mix64(salt + uint64(len(elems)))
	if rowWise {
		for i := range elems {
			e := &elems[i]
			r, c, s := uint64(e.Row), uint64(e.Col), uint64(e.Service)
			x1 := r*tileHashM3 ^ c*tileHashM4 ^ s
			x2 := r ^ c*tileHashM3 ^ s*tileHashM4
			lo = lo*tileHashM1 + x1
			hi = hi*tileHashM2 + x2
		}
	} else {
		for i := range elems {
			e := &elems[i]
			r, s := uint64(e.Row), uint64(e.Service)
			x1 := r*tileHashM3 + s
			x2 := r + s*tileHashM4
			lo = lo*tileHashM1 + x1
			hi = hi*tileHashM2 + x2
		}
	}
	fhi := sparse.Mix64(hi ^ (lo >> 32))
	flo := sparse.Mix64(lo ^ hi)
	if fhi == 0 && flo == 0 {
		flo = 1 // reserve (0, 0) as the empty-slot sentinel
	}
	return fhi, flo
}
