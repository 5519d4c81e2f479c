// Package shard scales the single-fabric daemon horizontally: a
// Cluster owns N independent m×m switch fabrics (each an
// internal/daemon single-writer loop with its own online.State, obs
// registry and optional self-check monitor), a consistent-hash router
// that assigns registrations to fabrics, and an amortized cross-shard
// metrics aggregation behind one HTTP control plane (http.go). That
// plane is the only one coflowd serves: a single-fabric deployment is
// a 1-shard cluster.
//
// Sharding model: coflows never span fabrics — a coflow's flows all
// live on the switch it was routed to, so each fabric's scheduling
// problem is exactly the paper's m×m formulation and the per-fabric
// zero-alloc Step machinery applies unchanged. The cluster's job is
// pure control-plane fan-out/fan-in: route writes to one fabric's
// loop, serve reads from per-fabric atomic snapshots, and aggregate.
package shard

import "slices"

// Ring is a consistent-hash ring over fabric indices: each fabric
// owns Replicas pseudo-random points on a uint64 ring, and a key is
// routed to the fabric owning the first point at or after the key's
// hash (wrapping). Consistency is the point of this construction:
// when a fabric is added or removed, only the keys on the segments it
// gains or loses move — about 1/N of them — instead of (N−1)/N under
// modulo hashing, so a resharded deployment keeps most coflow IDs
// resolvable by hash alone.
//
// A Ring is immutable after NewRing and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// defaultReplicas is the virtual-node count per fabric: enough that
// the max/mean key imbalance stays well under the 2× routing bound
// (empirically ~±15% at 128), cheap enough that building the ring is
// microseconds.
const defaultReplicas = 128

// NewRing builds a ring over shards fabrics with the given number of
// virtual points each (0 means defaultReplicas). It panics on a
// non-positive shard count — the cluster validates its config first.
func NewRing(shards, replicas int) *Ring {
	if shards <= 0 {
		panic("shard: non-positive shard count")
	}
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &Ring{
		points: make([]ringPoint, 0, shards*replicas),
		shards: shards,
	}
	for s := 0; s < shards; s++ {
		for j := 0; j < replicas; j++ {
			// shard and replica packed into one unique seed; mix64
			// spreads consecutive seeds uniformly over the ring.
			h := mix64(uint64(s)<<32 | uint64(j))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sortPoints(r.points)
	return r
}

// Shards returns the number of fabrics on the ring.
func (r *Ring) Shards() int { return r.shards }

// Route maps a coflow ID (or any key) to its fabric: the owner of the
// first ring point at or after mix64(key), wrapping past the top.
// This sits on the ingest hot path — a binary search over a fixed
// slice, no allocation.
//
//coflow:allocfree
func (r *Ring) Route(key uint64) int {
	h := mix64(key)
	// Manual binary search for the first point with hash >= h
	// (sort.Search would force h and the receiver into a closure).
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrapped past the highest point
	}
	return r.points[lo].shard
}

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output is uniform even on sequential inputs, which is exactly what
// monotone coflow IDs are.
//
//coflow:allocfree
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sortPoints sorts by hash; mix64 is bijective over distinct seeds so
// ties cannot happen and the order is total.
func sortPoints(ps []ringPoint) {
	slices.SortFunc(ps, func(a, b ringPoint) int {
		switch {
		case a.hash < b.hash:
			return -1
		case a.hash > b.hash:
			return 1
		}
		return 0
	})
}
