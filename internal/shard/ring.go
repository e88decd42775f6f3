// Package shard partitions the honeypot node set across N shards, each
// running the stateless extract step over the captures of its node subset,
// with a coordinator that merges the capture streams back into the
// deterministic single-monitor order (Fanout). A shard extracts on its own
// goroutine or, in proc mode, hands each micro-batch to a worker subprocess
// over loopback HTTP (Transport, WorkerCore).
package shard

import (
	"sort"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/socialnet"
)

// vnodesPerShard is the number of virtual points each shard contributes to
// the hash ring. 64 points per shard keeps the expected node imbalance for
// the paper's 2,400-node network under ~15% without making Owner lookups
// measurably slower (binary search over ≤512 points for 8 shards).
const vnodesPerShard = 64

// Ring is a consistent-hash ring over shard indices. Node ids hash onto
// the ring and are owned by the next virtual point clockwise. The ring is
// a pure function of the shard count — coordinator and tests derive the
// identical assignment independently; nothing is negotiated.
type Ring struct {
	n      int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit mix used both to place virtual points and to hash node ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing builds the ring for n shards (n < 1 is treated as 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{n: n, points: make([]ringPoint, 0, n*vnodesPerShard)}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			// Distinct (shard, vnode) inputs stay injective before mixing;
			// the salt keeps vnode placement uncorrelated with the node-id
			// hashes, which use raw splitmix64.
			h := splitmix64(0xD1B5_4A32 + uint64(s)*vnodesPerShard + uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.n }

// Owner returns the shard that owns a node id.
func (r *Ring) Owner(id socialnet.AccountID) int {
	if r.n == 1 {
		return 0
	}
	h := splitmix64(uint64(id))
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	return r.points[idx].shard
}
