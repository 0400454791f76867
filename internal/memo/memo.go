// Package memo is a content-addressed cache over the expensive
// design-independent analysis artifacts of one A×B operand pair: the
// extracted feature vector, the four design simulation results, and the
// baseline workload statistics. Misam's deployment scenarios are
// dominated by repeated operands — a pruned weight matrix multiplies a
// stream of activations, and the reconfiguration engine re-prices the
// same pair family across a workload stream — so cross-request
// memoization turns the serving hot path into a fingerprint + lookup.
//
// Three properties drive the design:
//
//   - Content addressing: entries are keyed by a 128-bit fingerprint of
//     the operand contents (sparse.CSR.Fingerprint), so equal matrices
//     hit regardless of which request built them.
//   - Singleflight coalescing: N concurrent requests for the same key run
//     one analysis; the rest wait and share the result. An aborted leader
//     hands leadership to a surviving waiter instead of poisoning the
//     cache — partial results are never stored.
//   - Byte-budgeted LRU: eviction is by measured entry bytes, sharded to
//     keep lock hold times short under concurrent serving load.
//
// What is deliberately NOT cached: the reconfiguration Decision. It
// depends on the mutable per-accelerator bitstream state, so it must be
// re-priced per request (reconfig.Engine.Decide stays pure and cheap —
// two regression-tree lookups).
package memo

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"misam/internal/baseline"
	"misam/internal/features"
	"misam/internal/sim"
	"misam/internal/sparse"
)

// Key is a 128-bit content address for one operand pair (plus any
// flavour salt the caller mixes in, e.g. pruned-vs-full feature
// extraction).
type Key struct {
	Hi, Lo uint64
}

// Bytes renders the key as 16 little-endian bytes (Lo then Hi) — the
// stable wire form cluster routing hashes to pick an owner node. Two
// keys are equal iff their byte images are equal, so any node hashing
// the same operand pair lands on the same ring point.
func (k Key) Bytes() [16]byte {
	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], k.Lo)
	binary.LittleEndian.PutUint64(out[8:], k.Hi)
	return out
}

// PairKey combines the two operand fingerprints into a cache key. The
// combination is order-sensitive (A×B and B×A address different
// entries) and re-mixed so that structured fingerprint pairs cannot
// cancel.
func PairKey(a, b sparse.Fingerprint) Key {
	lo := sparse.Mix64(a.Lo ^ sparse.Mix64(b.Hi+0x9e3779b97f4a7c15))
	hi := sparse.Mix64(a.Hi + sparse.Mix64(b.Lo^0xc2b2ae3d27d4eb4f))
	return Key{Hi: hi ^ (lo >> 32), Lo: lo}
}

// Analysis holds every design-independent artifact one Analyze (or
// stream-tile, or labelling) pass derives from an operand pair. All
// fields are immutable once published to the cache; the struct contains
// no slices or pointers, so sharing it across requests is safe without
// copying.
type Analysis struct {
	// Features is the §3.1 feature vector, in the extraction flavour the
	// entry's builder used (full or pruned — the key salt keeps the two
	// flavours apart).
	Features features.Vector
	// Results are the cycle-level outcomes of all four designs, so any
	// per-request Decision target finds its simulation ready.
	Results [sim.NumDesigns]sim.Result
	// Baseline are the CPU/GPU/Trapezoid cost-model inputs.
	Baseline baseline.Stats
}

// entryOverheadBytes approximates the per-entry bookkeeping the resident
// accounting charges on top of the payload: map bucket share, list
// element, entry header.
const entryOverheadBytes = 128

// analysisBytes is the measured payload size of one cached Analysis. The
// struct is slice-free, so unsafe.Sizeof covers it exactly.
var analysisBytes = int64(unsafe.Sizeof(Analysis{})) + entryOverheadBytes

// FastEntry is the fast-path cache payload: the extracted feature vector
// plus the baseline cost-model inputs. The confidence-gated tier skips
// the four simulations, and with the baseline stats cached alongside the
// features, a warm hit on a binary-ingested request can price the
// CPU/GPU/Trapezoid comparisons without ever materializing the operands —
// the zero-copy warm path decodes nothing. The struct is slice-free, so
// sharing it across requests is safe without copying.
type FastEntry struct {
	Features features.Vector
	Baseline baseline.Stats
}

// fastBytes is the payload size of one fast-path entry.
var fastBytes = int64(unsafe.Sizeof(FastEntry{})) + entryOverheadBytes

// EntryBytes reports the bytes one cached full-analysis entry charges
// against the budget (payload plus bookkeeping overhead).
func EntryBytes() int64 { return analysisBytes }

// FastEntryBytes is EntryBytes for a fast entry.
func FastEntryBytes() int64 { return fastBytes }

// fastSaltHi/Lo separate the fast-entry keyspace from full analyses: the
// same operand pair (same PairKey plus whatever flavour salt the caller
// mixed in) addresses distinct full and fast slots, so a fast hit can
// never masquerade as a full Analysis or vice versa.
const (
	fastSaltHi = 0xf157a7e5f157a7e5
	fastSaltLo = 0x5eedfacecafe1234
)

func fastKey(key Key) Key {
	return Key{Hi: key.Hi ^ fastSaltHi, Lo: sparse.Mix64(key.Lo ^ fastSaltLo)}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran the builder (singleflight leaders).
	Misses int64 `json:"misses"`
	// Coalesced counts waiters that shared a leader's in-flight build
	// instead of running their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped by the byte-budget LRU.
	Evictions int64 `json:"evictions"`
	// AbortedLeaders counts builds that ended in cancellation and were
	// discarded (never stored).
	AbortedLeaders int64 `json:"aborted_leaders"`
	// FastHits/FastMisses count the features-only fast-entry lookups
	// (DoFast); Hits/Misses above count only full-analysis traffic.
	FastHits   int64 `json:"fast_hits"`
	FastMisses int64 `json:"fast_misses"`
	// Entries and ResidentBytes describe the current working set;
	// BudgetBytes is the configured ceiling.
	Entries       int64 `json:"entries"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// numShards spreads keys across independently locked LRU segments. 16 is
// plenty for the fleet sizes the server runs: the critical section is a
// map probe and two list-pointer swaps.
const numShards = 16

// flight is one in-progress build. done is closed exactly once, after
// val/err are set. val is *Analysis for full entries and FastEntry for
// fast entries; the two keyspaces never mix (fastKey salt), so each
// caller knows which kind it is waiting for.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

type entry struct {
	key   Key
	val   any
	bytes int64
}

// shard is one LRU segment: resident entries in recency order plus the
// in-flight builds for keys that hash here.
type shard struct {
	mu      sync.Mutex
	items   map[Key]*list.Element // value: *entry
	lru     list.List             // front = most recent
	bytes   int64
	flights map[Key]*flight
}

// Cache is the sharded, byte-budgeted, singleflight-coalescing analysis
// cache. All methods are safe for concurrent use.
type Cache struct {
	shards         [numShards]shard
	budgetPerShard int64
	budget         int64

	hits       atomic.Int64
	misses     atomic.Int64
	fastHits   atomic.Int64
	fastMisses atomic.Int64
	coalesced  atomic.Int64
	evictions  atomic.Int64
	aborted    atomic.Int64
	resident   atomic.Int64
	entries    atomic.Int64
}

// New returns a cache bounded to roughly budgetBytes of resident
// analysis entries. The budget is split evenly across shards; a budget
// too small to hold a single entry per shard still admits one entry at a
// time (insert-then-evict keeps the newest).
func New(budgetBytes int64) *Cache {
	if budgetBytes < analysisBytes {
		budgetBytes = analysisBytes
	}
	per := budgetBytes / numShards
	if per < analysisBytes {
		per = analysisBytes
	}
	c := &Cache{budgetPerShard: per, budget: budgetBytes}
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*list.Element)
		c.shards[i].flights = make(map[Key]*flight)
	}
	return c
}

func (c *Cache) shard(key Key) *shard {
	return &c.shards[key.Lo%numShards]
}

// Get returns the resident full-analysis entry for key, if any, marking
// it most recently used. It never blocks on in-flight builds.
func (c *Cache) Get(key Key) (*Analysis, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if ok {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*entry).val.(*Analysis), true
}

// Peek returns the resident full-analysis entry for key, if any,
// without counting a hit or refreshing its recency: a look that books
// nothing, for callers that decide later whether they use the entry.
func (c *Cache) Peek(key Key) (*Analysis, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).val.(*Analysis), true
}

// Do returns the analysis for key, computing it with build on a miss.
// Concurrent calls for the same key coalesce onto one builder; the rest
// wait and share its result. hit reports whether the caller avoided
// running build itself (resident entry or coalesced share).
//
// Cancellation safety: build runs under the leader's ctx. If the leader
// is cancelled, nothing is stored and the flight fails with the
// cancellation error — but waiters whose own contexts are still live do
// not inherit the failure. They re-enter the loop, and one of them
// becomes the new leader (the hand-off the serving path relies on: a
// disconnecting client must not fail the requests queued behind it).
func (c *Cache) Do(ctx context.Context, key Key, build func(ctx context.Context) (*Analysis, error)) (an *Analysis, hit bool, err error) {
	val, hit, err := c.do(ctx, key, analysisBytes, &c.hits, &c.misses, func(ctx context.Context) (any, error) {
		an, err := build(ctx)
		if err == nil && an == nil {
			return nil, errors.New("memo: builder returned nil analysis")
		}
		return an, err
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*Analysis), hit, nil
}

// DoFast is Do for the confidence-gated tier: it caches the extracted
// feature vector and baseline stats (the fast path's expensive
// design-independent artifacts), keyed in a salted keyspace disjoint from
// full analyses so the two entry kinds share the byte budget and LRU but
// never alias. Same singleflight and cancellation semantics as Do.
func (c *Cache) DoFast(ctx context.Context, key Key, build func(ctx context.Context) (FastEntry, error)) (e FastEntry, hit bool, err error) {
	val, hit, err := c.do(ctx, fastKey(key), fastBytes, &c.fastHits, &c.fastMisses, func(ctx context.Context) (any, error) {
		e, err := build(ctx)
		if err != nil {
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return FastEntry{}, false, err
	}
	return val.(FastEntry), hit, nil
}

// GetFast probes the fast-entry keyspace without blocking on in-flight
// builds and without running a builder. The zero-copy warm path uses it
// straight off a wire fingerprint: on a hit the request is served from
// the entry alone and the operand bytes are never decoded. A hit marks
// the entry most recently used and counts as a fast hit; a miss counts
// nothing (the caller proceeds to DoFast, which books the miss).
func (c *Cache) GetFast(key Key) (FastEntry, bool) {
	fk := fastKey(key)
	sh := c.shard(fk)
	sh.mu.Lock()
	el, ok := sh.items[fk]
	if ok {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if !ok {
		return FastEntry{}, false
	}
	c.fastHits.Add(1)
	return el.Value.(*entry).val.(FastEntry), true
}

// do is the shared lookup/singleflight/insert core behind Do and DoFast.
// bytes is what a stored entry charges against the budget; hits/misses
// are the per-kind counters to bump.
func (c *Cache) do(ctx context.Context, key Key, bytes int64, hits, misses *atomic.Int64, build func(ctx context.Context) (any, error)) (val any, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		sh := c.shard(key)
		sh.mu.Lock()
		if el, ok := sh.items[key]; ok {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			hits.Add(1)
			return el.Value.(*entry).val, true, nil
		}
		if f, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.val, true, nil
			}
			if isCancellation(f.err) {
				// Leader aborted: retry, possibly becoming the new leader.
				continue
			}
			// A real build failure is shared — every waiter would have
			// failed the same way.
			return nil, false, f.err
		}
		// Become the leader.
		f := &flight{done: make(chan struct{})}
		sh.flights[key] = f
		sh.mu.Unlock()
		misses.Add(1)

		val, err := build(ctx)

		sh.mu.Lock()
		delete(sh.flights, key)
		if err == nil {
			c.insertLocked(sh, key, val, bytes)
		}
		sh.mu.Unlock()
		if err != nil && isCancellation(err) {
			c.aborted.Add(1)
		}

		f.val, f.err = val, err
		close(f.done)
		return val, false, err
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked adds (or refreshes) an entry and evicts from the LRU tail
// until the shard is back under budget. The just-inserted entry is never
// evicted: with a degenerate budget the cache degrades to
// hold-the-latest, not hold-nothing.
func (c *Cache) insertLocked(sh *shard, key Key, val any, bytes int64) {
	if el, ok := sh.items[key]; ok {
		// A racing leader on the same key already stored — refresh
		// recency, keep the resident value (the builds are deterministic).
		sh.lru.MoveToFront(el)
		return
	}
	e := &entry{key: key, val: val, bytes: bytes}
	sh.items[key] = sh.lru.PushFront(e)
	sh.bytes += e.bytes
	c.resident.Add(e.bytes)
	c.entries.Add(1)
	for sh.bytes > c.budgetPerShard && sh.lru.Len() > 1 {
		tail := sh.lru.Back()
		old := tail.Value.(*entry)
		sh.lru.Remove(tail)
		delete(sh.items, old.key)
		sh.bytes -= old.bytes
		c.resident.Add(-old.bytes)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// Stats snapshots the counters. Counters are read individually and may
// be mutually inconsistent by a few in-flight operations — fine for
// monitoring, not a linearizable view.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Coalesced:      c.coalesced.Load(),
		Evictions:      c.evictions.Load(),
		AbortedLeaders: c.aborted.Load(),
		FastHits:       c.fastHits.Load(),
		FastMisses:     c.fastMisses.Load(),
		Entries:        c.entries.Load(),
		ResidentBytes:  c.resident.Load(),
		BudgetBytes:    c.budget,
	}
}
