package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"misam/internal/memo"
)

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%d:8080", i)
	}
	return out
}

func randKeys(n int, seed int64) []memo.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]memo.Key, n)
	for i := range keys {
		keys[i] = memo.Key{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	return keys
}

// TestRingBalance pins the distribution property: with the default
// vnode count every member's observed key share stays inside a
// tolerance band around 1/N, and the arc-length Shares estimate tracks
// the observed shares.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			members := testMembers(n)
			r, err := NewRing(members, 0)
			if err != nil {
				t.Fatal(err)
			}
			keys := randKeys(40000, int64(n))
			counts := make(map[string]int, n)
			for _, k := range keys {
				counts[r.Owner(k)]++
			}
			want := float64(len(keys)) / float64(n)
			// 64 vnodes/member keeps shares within a factor ~2 of uniform
			// with overwhelming probability; the band is deterministic here
			// because keys and members are fixed.
			lo, hi := want*0.45, want*2.2
			for _, m := range members {
				if c := counts[m]; float64(c) < lo || float64(c) > hi {
					t.Errorf("member %s owns %d of %d keys, outside [%.0f, %.0f]", m, c, len(keys), lo, hi)
				}
			}
			shares := r.Shares()
			var sum float64
			for _, m := range members {
				sum += shares[m]
				observed := float64(counts[m]) / float64(len(keys))
				if diff := shares[m] - observed; diff > 0.02 || diff < -0.02 {
					t.Errorf("member %s: arc share %.4f vs observed %.4f", m, shares[m], observed)
				}
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("shares sum to %.6f, want 1", sum)
			}
		})
	}
}

// TestRingMinimalRemap pins consistent hashing's reason to exist:
// removing one member remaps ONLY the keys that member owned — every
// other key keeps its owner — and the remapped fraction is ~1/N.
func TestRingMinimalRemap(t *testing.T) {
	const n = 5
	members := testMembers(n)
	full, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := members[2]
	reduced, err := NewRing(append(append([]string(nil), members[:2]...), members[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(40000, 7)
	remapped := 0
	for _, k := range keys {
		before, after := full.Owner(k), reduced.Owner(k)
		if before == removed {
			remapped++
			if after == removed {
				t.Fatalf("key %v still owned by removed member", k)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %v moved %s -> %s though its owner stayed in the ring", k, before, after)
		}
	}
	frac := float64(remapped) / float64(len(keys))
	if frac < 0.5/n || frac > 2.2/n {
		t.Errorf("removal remapped %.3f of keys, want ~1/%d", frac, n)
	}
}

// TestRingDeterminism pins that every node computes the same owner for
// the same key: rings built from any permutation of the member list are
// identical.
func TestRingDeterminism(t *testing.T) {
	members := testMembers(6)
	base, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := randKeys(5000, 11)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r, err := NewRing(shuffled, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, want := r.Owner(k), base.Owner(k); got != want {
				t.Fatalf("trial %d: key %v owned by %s, want %s", trial, k, got, want)
			}
		}
	}
}

func TestRingRejectsDuplicates(t *testing.T) {
	if _, err := NewRing([]string{"http://a:1", "http://b:1", "http://a:1"}, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestRingSingleMemberOwnsEverything(t *testing.T) {
	r, err := NewRing([]string{"http://solo:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range randKeys(100, 3) {
		if r.Owner(k) != "http://solo:1" {
			t.Fatal("single-member ring routed a key elsewhere")
		}
	}
}

// TestRingOwnerPinned pins ring placement to constants recorded before
// the ring's splitmix64 finalizer moved to sparse.Mix64: the key fold,
// the vnode points and the owners of fixed keys must not move, or every
// deployed node would remap its keyspace on upgrade.
func TestRingOwnerPinned(t *testing.T) {
	r, err := NewRing(testMembers(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := r.points[0].point, r.points[len(r.points)-1].point; lo != 0x4598f8aba2578c || hi != 0xfedf92c0d0cd9019 {
		t.Fatalf("ring spans [%#x, %#x], want [0x4598f8aba2578c, 0xfedf92c0d0cd9019]", lo, hi)
	}
	for _, c := range []struct {
		key   memo.Key
		fold  uint64
		owner string
	}{
		{memo.Key{Hi: 0x123456789abcdef, Lo: 0xfedcba9876543210}, 0xe4ba6be94c1a801f, "http://node-4:8080"},
		{memo.Key{Hi: 0x2468acf13579bde, Lo: 0x60ebc321091e4e05}, 0xf7b761d4ac19b674, "http://node-1:8080"},
		{memo.Key{Hi: 0x369d0369d0369cd, Lo: 0xc2b249ea88c0ca3a}, 0xc1761729a7d2693c, "http://node-4:8080"},
		{memo.Key{Hi: 0x48d159e26af37bc, Lo: 0x247ad7b40b8b462f}, 0x6936da2698a3891e, "http://node-4:8080"},
		{memo.Key{Hi: 0x5b05b05b05b05ab, Lo: 0x86015c7d8b7dc244}, 0x1ce855b5c8a3b1b2, "http://node-2:8080"},
		{memo.Key{Hi: 0x6d3a06d3a06d39a, Lo: 0xe9c9da070a205e79}, 0x35b83777602b59f0, "http://node-1:8080"},
		{memo.Key{Hi: 0x7f6e5d4c3b2a189, Lo: 0x4b9060c08deada6e}, 0x8e0a6b16bcf24ae3, "http://node-1:8080"},
		{memo.Key{Hi: 0x91a2b3c4d5e6f78, Lo: 0xad58ee8a0d5d5683}, 0x8a94ce88dd9b5095, "http://node-3:8080"},
	} {
		if got := hashKey(c.key); got != c.fold {
			t.Errorf("hashKey(%+v) = %#x, want %#x", c.key, got, c.fold)
		}
		if got := r.Owner(c.key); got != c.owner {
			t.Errorf("Owner(%+v) = %s, want %s", c.key, got, c.owner)
		}
	}
}
