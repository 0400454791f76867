package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"misam/internal/features"
	"misam/internal/sparse"
)

// shardKey builds a key that lands in shard 0, with i distinguishing
// entries — the eviction-order tests need all entries in one LRU.
func shardKey(i int) Key {
	return Key{Hi: uint64(i), Lo: uint64(i) * numShards}
}

func dummyAnalysis(tag float64) *Analysis {
	an := &Analysis{}
	an.Features[0] = tag
	return an
}

func mustDo(t *testing.T, c *Cache, key Key, tag float64) (*Analysis, bool) {
	t.Helper()
	an, hit, err := c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
		return dummyAnalysis(tag), nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return an, hit
}

func TestDoMissThenHit(t *testing.T) {
	c := New(1 << 20)
	an, hit := mustDo(t, c, shardKey(1), 41)
	if hit {
		t.Fatal("first Do reported a hit")
	}
	an2, hit := mustDo(t, c, shardKey(1), 99)
	if !hit {
		t.Fatal("second Do missed")
	}
	if an2 != an || an2.Features[0] != 41 {
		t.Fatal("hit did not return the stored entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.ResidentBytes != EntryBytes() {
		t.Fatalf("resident bytes %d, want %d", st.ResidentBytes, EntryBytes())
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	// K concurrent identical requests must run exactly one build. Run
	// under -race (ci.sh does) — the waiters all read the shared result.
	c := New(1 << 20)
	const K = 32
	var builds atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]*Analysis, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(context.Background(), shardKey(7), func(context.Context) (*Analysis, error) {
				builds.Add(1)
				<-release // hold the flight open until all K have arrived or queued
				return dummyAnalysis(7), nil
			})
		}(i)
	}
	// Wait for the leader to be in the builder, then let everyone pile up.
	for builds.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for %d concurrent requests, want 1", n, K)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Features[0] != 7 {
			t.Fatalf("request %d got wrong result", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced+st.Hits != K-1 {
		t.Fatalf("coalesced (%d) + hits (%d) != %d", st.Coalesced, st.Hits, K-1)
	}
}

func TestLRUEvictionOrderByBytes(t *testing.T) {
	// Budget for exactly 3 entries in shard 0. numShards shards share the
	// total budget evenly, so scale it up.
	c := New(3 * EntryBytes() * numShards)

	mustDo(t, c, shardKey(1), 1)
	mustDo(t, c, shardKey(2), 2)
	mustDo(t, c, shardKey(3), 3)
	// Touch 1 so 2 becomes least-recently used.
	if _, hit := c.Get(shardKey(1)); !hit {
		t.Fatal("entry 1 missing before eviction")
	}
	// Inserting 4 must evict 2, not 1 or 3.
	mustDo(t, c, shardKey(4), 4)

	if _, hit := c.Get(shardKey(2)); hit {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if _, hit := c.Get(shardKey(i)); !hit {
			t.Fatalf("entry %d was evicted out of LRU order", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes > c.budgetPerShard*numShards {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, c.budget)
	}
}

func TestTinyBudgetKeepsNewest(t *testing.T) {
	// A budget below one entry degrades to hold-the-latest.
	c := New(1)
	mustDo(t, c, shardKey(1), 1)
	mustDo(t, c, shardKey(2), 2)
	if _, hit := c.Get(shardKey(1)); hit {
		t.Fatal("old entry survived a one-entry budget")
	}
	if _, hit := c.Get(shardKey(2)); !hit {
		t.Fatal("newest entry was not retained")
	}
}

func TestCancelledLeaderDoesNotPoisonCache(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(9)
	var builds atomic.Int64

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inBuild := make(chan struct{})

	// Leader: blocks in the builder until cancelled.
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, key, func(ctx context.Context) (*Analysis, error) {
			builds.Add(1)
			close(inBuild)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-inBuild

	// Waiter with a live context: must survive the leader's abort by
	// taking over the flight and completing the build itself.
	waiterDone := make(chan struct{})
	var waiterAn *Analysis
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterAn, _, waiterErr = c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
			builds.Add(1)
			return dummyAnalysis(9), nil
		})
	}()
	// Give the waiter time to park on the leader's flight, then abort the
	// leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	<-waiterDone
	if waiterErr != nil {
		t.Fatalf("waiter failed after leader abort: %v", waiterErr)
	}
	if waiterAn == nil || waiterAn.Features[0] != 9 {
		t.Fatal("waiter got wrong analysis after hand-off")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2 (aborted leader + hand-off)", n)
	}
	// The aborted partial build must not be resident; the hand-off's
	// completed build must be.
	an, hit := c.Get(key)
	if !hit || an.Features[0] != 9 {
		t.Fatal("cache does not hold the hand-off build")
	}
	st := c.Stats()
	if st.AbortedLeaders != 1 {
		t.Fatalf("aborted leaders = %d, want 1", st.AbortedLeaders)
	}
}

func TestCancelledWaiterReturnsOwnError(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(11)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
			close(inBuild)
			<-release
			return dummyAnalysis(1), nil
		})
	}()
	<-inBuild
	waiterCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(waiterCtx, key, func(context.Context) (*Analysis, error) {
		t.Error("cancelled waiter ran the builder")
		return nil, nil
	})
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
}

func TestBuildErrorIsSharedNotCached(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(13)
	boom := fmt.Errorf("synthetic failure")
	_, _, err := c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the build error", err)
	}
	if _, hit := c.Get(key); hit {
		t.Fatal("failed build was cached")
	}
	// A later request retries.
	if _, hit := mustDo(t, c, key, 13); hit {
		t.Fatal("retry after failure reported a hit")
	}
}

func TestDoConcurrentDistinctKeys(t *testing.T) {
	// Hammer distinct and overlapping keys under -race.
	c := New(8 * EntryBytes() * numShards)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := shardKey(i % 24)
				an, _, err := c.Do(context.Background(), k, func(context.Context) (*Analysis, error) {
					return dummyAnalysis(float64(i % 24)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if an.Features[0] != float64(i%24) {
					t.Errorf("key %d returned tag %v", i%24, an.Features[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkMemoHit(b *testing.B) {
	c := New(1 << 20)
	key := shardKey(1)
	mustDoB(b, c, key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := c.Get(key); !hit {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMemoDoCoalesced(b *testing.B) {
	c := New(1 << 20)
	key := shardKey(2)
	mustDoB(b, c, key)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
				return dummyAnalysis(0), nil
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func mustDoB(b *testing.B, c *Cache, key Key) {
	b.Helper()
	if _, _, err := c.Do(context.Background(), key, func(context.Context) (*Analysis, error) {
		return dummyAnalysis(0), nil
	}); err != nil {
		b.Fatal(err)
	}
}

// TestDoFastSeparateKeyspace: fast (features-only) and full entries for
// the SAME key must occupy distinct slots, bump distinct counters, and
// charge their own sizes against a shared budget.
func TestDoFastSeparateKeyspace(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(1)

	var e FastEntry
	e.Features[0] = 7
	e.Baseline.Flops = 11
	got, hit, err := c.DoFast(context.Background(), key, func(context.Context) (FastEntry, error) {
		return e, nil
	})
	if err != nil || hit || got != e {
		t.Fatalf("first DoFast = (%v, %v, %v), want miss returning stored entry", got.Features[0], hit, err)
	}
	got, hit, err = c.DoFast(context.Background(), key, func(context.Context) (FastEntry, error) {
		t.Fatal("fast hit ran the builder")
		return FastEntry{}, nil
	})
	if err != nil || !hit || got != e {
		t.Fatalf("second DoFast = (%v, %v, %v), want hit", got.Features[0], hit, err)
	}

	// GetFast probes the same slot without a builder; a probe on a cold
	// key is a clean miss that counts nothing.
	if ge, ok := c.GetFast(key); !ok || ge != e {
		t.Fatalf("GetFast(warm key) = (%v, %v), want the stored entry", ge.Features[0], ok)
	}
	if _, ok := c.GetFast(shardKey(99)); ok {
		t.Fatal("GetFast(cold key) reported a hit")
	}

	// A full Do on the same key must not see the fast entry.
	if _, ok := c.Get(key); ok {
		t.Fatal("Get(key) returned the fast entry as a full analysis")
	}
	an, hit := mustDo(t, c, key, 41)
	if hit || an.Features[0] != 41 {
		t.Fatal("full Do on a fast-cached key did not run its own build")
	}

	st := c.Stats()
	// 1 DoFast hit + 1 warm GetFast probe; the cold probe counts nothing.
	if st.FastHits != 2 || st.FastMisses != 1 {
		t.Fatalf("fast counters = %d hits / %d misses, want 2/1", st.FastHits, st.FastMisses)
	}
	if st.Misses != 1 {
		t.Fatalf("full misses = %d, want 1 (fast traffic leaked into full counters)", st.Misses)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one fast, one full)", st.Entries)
	}
	if want := EntryBytes() + FastEntryBytes(); st.ResidentBytes != want {
		t.Fatalf("resident bytes %d, want %d", st.ResidentBytes, want)
	}
	if FastEntryBytes() >= EntryBytes() {
		t.Fatalf("fast entry (%d B) should be cheaper than a full analysis (%d B)",
			FastEntryBytes(), EntryBytes())
	}
}

// TestDoFastSingleflight: concurrent fast lookups for one key coalesce
// onto a single feature extraction.
func TestDoFastSingleflight(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(3)
	var builds atomic.Int64
	release := make(chan struct{})
	const K = 8
	var wg sync.WaitGroup
	results := make([]features.Vector, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := c.DoFast(context.Background(), key, func(context.Context) (FastEntry, error) {
				builds.Add(1)
				<-release
				var e FastEntry
				e.Features[0] = 123
				return e, nil
			})
			if err != nil {
				t.Errorf("DoFast: %v", err)
			}
			results[i] = got.Features
		}(i)
	}
	// Let the goroutines pile up behind one leader, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran, want 1", n)
	}
	for i, v := range results {
		if v[0] != 123 {
			t.Fatalf("waiter %d got %v, want the shared result", i, v[0])
		}
	}
}

// TestDoFastBuildError: extraction failures propagate and are not cached.
func TestDoFastBuildError(t *testing.T) {
	c := New(1 << 20)
	key := shardKey(5)
	boom := errors.New("boom")
	_, _, err := c.DoFast(context.Background(), key, func(context.Context) (FastEntry, error) {
		return FastEntry{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call runs a fresh build.
	got, hit, err := c.DoFast(context.Background(), key, func(context.Context) (FastEntry, error) {
		var e FastEntry
		e.Features[0] = 9
		return e, nil
	})
	if err != nil || hit || got.Features[0] != 9 {
		t.Fatalf("retry after error = (%v, %v, %v), want fresh miss", got.Features[0], hit, err)
	}
}

// TestPairKeyPinned pins PairKey and the fast-entry salt to constants
// recorded before memo's splitmix64 finalizer moved to sparse.Mix64:
// cache keys must not move when the mixer's home does.
func TestPairKeyPinned(t *testing.T) {
	k := PairKey(sparse.Fingerprint{Hi: 1, Lo: 2}, sparse.Fingerprint{Hi: 3, Lo: 4})
	if want := (Key{Hi: 0x1f43eea504422c1, Lo: 0x3e4e98c3ee83c1e8}); k != want {
		t.Fatalf("PairKey = %+v, want %+v", k, want)
	}
	if got, want := fastKey(k), (Key{Hi: 0xf0a3990fa1138524, Lo: 0x98f0e70159014d3c}); got != want {
		t.Fatalf("fastKey = %+v, want %+v", got, want)
	}
}
