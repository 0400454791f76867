// Package cluster shards the Misam serving layer across nodes. The
// whole stack below it was built for this: analysis cache entries are
// content-addressed by operand fingerprints (memo.PairKey), model
// snapshots are immutable and versioned, and the binary wire format is
// self-delimiting — so a request can be routed to the node that owns its
// key, its body forwarded byte for byte, and the owner's warm cache and
// singleflight coalescing keep working at fleet scale with zero
// re-keying.
//
// Three pieces:
//
//   - Ring: a consistent-hash ring over the member set (virtual nodes
//     seeded by member ID), keyed on the operand pair's memo.Key. Every
//     node computes the same owner for the same key, and membership
//     changes remap only the departed member's share.
//   - Cluster: the peer table — one bounded-connection HTTP client per
//     peer, forwarding with per-attempt timeouts and N retries, and the
//     counters behind GET /v1/cluster. A forward that exhausts its
//     retries degrades to serving locally: a dead peer costs cache
//     locality, never availability.
//   - Replicator: registry replication. Each node pushes its current
//     model snapshot to every peer each sync interval (and immediately
//     after a local promotion or rollback); receivers apply a push only
//     when its Lamport (seq, origin) stamp is newer than their own, so
//     the latest operator action wins cluster-wide and re-deliveries are
//     idempotent.
package cluster

import (
	"fmt"
	"sort"

	"misam/internal/memo"
	"misam/internal/sparse"
)

// DefaultVNodes is the virtual-node count per member. 64 points per
// member keeps the ownership shares of small clusters within a few
// percent of uniform while the ring stays tiny (N*64 points).
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a member.
type ringPoint struct {
	point  uint64
	member int // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a member set. Build it
// once from the full membership (self included); Owner is safe for
// concurrent use.
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per member (<= 0 uses
// DefaultVNodes). Member order does not matter: the points depend only
// on the member IDs, so every node that knows the same membership —
// regardless of how its -peers list was ordered — computes the same
// owner for every key.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{
		members: sorted,
		points:  make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for mi, m := range sorted {
		// Seed the member's point sequence from its ID alone: a
		// splitmix64 walk from the hashed ID gives well-spread,
		// order-independent points.
		h := hashString(m)
		for v := 0; v < vnodes; v++ {
			h += 0x9e3779b97f4a7c15
			r.points = append(r.points, ringPoint{point: sparse.Mix64(h), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].point != r.points[j].point {
			return r.points[i].point < r.points[j].point
		}
		// Colliding points tie-break on member ID so every node breaks
		// the (astronomically unlikely) tie the same way.
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r, nil
}

// Members returns the member IDs in ring (sorted) order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning key: the first virtual node at or
// clockwise of the key's ring position.
func (r *Ring) Owner(key memo.Key) string {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return r.members[r.points[i].member]
}

// Shares estimates each member's ownership fraction from its share of
// ring arc length — the expected fraction of keys it owns.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return shares
	}
	// The arc ending at point i belongs to point i's member.
	prev := r.points[len(r.points)-1].point
	for _, p := range r.points {
		arc := p.point - prev // uint64 wrap-around handles the seam
		shares[r.members[p.member]] += float64(arc) / (1 << 64)
		prev = p.point
	}
	return shares
}

// hashKey maps a memo.Key onto the ring. The key is already a mixed
// 128-bit content address; hashing its byte image (the stable wire form
// memo.Key.Bytes defines) folds it to the ring's 64-bit space without
// correlating with the vnode point sequence.
func hashKey(k memo.Key) uint64 {
	b := k.Bytes()
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return sparse.Mix64(h)
}

// hashString is FNV-64a over the member ID.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
