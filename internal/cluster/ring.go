package cluster

import (
	"fmt"
	"sort"
)

// ring.go builds the stable slot→pair table: a consistent-hash ring
// with virtual nodes and bounded load, in the "consistent hashing with
// bounded loads" style — the clockwise walk skips a node once it owns
// its fair share times the load factor, so the vnode lottery cannot
// leave one node owning half the key space. The table is a pure
// function of the sorted member IDs, so every component (router, smart
// clients, tests) derives the identical assignment independently, and
// a restarted node re-enters exactly the slots it held before.
//
// Pairs are computed once over the full static membership and do not
// move when a node dies: failover flips roles inside the pair (the
// router's job) instead of reshuffling data onto a third node. That
// keeps the recovery story honest — a rejoining node owns the same
// slots, so its journal-replayed state plus the pair peer's delta
// buffer is exactly its pre-crash responsibility set.

// fnv1a64 hashes s with FNV-1a; good enough avalanche for vnode
// placement and dependency-free.
func fnv1a64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

type vnode struct {
	hash uint64
	node int // index into the sorted id list
}

// BuildPairs assigns each of NumSlots slots a (first, second) replica
// pair over the given node IDs: ringVNodes virtual points per node on a
// 64-bit ring, bounded-load capacity ringLoadFactor*NumSlots/len(ids)+1
// per node per role. With one node, second is -1 everywhere. The
// returned indices refer to ids sorted ascending (sort them first or
// use the returned order from SortedIDs); BuildPairs sorts internally
// and maps back, so the caller's id order is respected.
func BuildPairs(ids []string) ([][2]int, error) {
	n := len(ids)
	if n == 0 {
		return nil, fmt.Errorf("cluster: BuildPairs needs at least one node")
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if a == b {
				return nil, fmt.Errorf("cluster: duplicate node id %q", a)
			}
		}
	}
	// Hash-determinism must not depend on the caller's id order: place
	// vnodes from a sorted view, then translate back.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })

	ring := make([]vnode, 0, n*ringVNodes)
	for _, orig := range order {
		for v := 0; v < ringVNodes; v++ {
			h := fnv1a64(fmt.Sprintf("%s#%d", ids[orig], v))
			// One extra avalanche round: FNV clusters on short suffixes.
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			ring = append(ring, vnode{hash: h, node: orig})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ids[ring[a].node] < ids[ring[b].node]
	})

	cap1 := int(ringLoadFactor*float64(NumSlots)/float64(n)) + 1
	load1 := make([]int, n) // slots held as first replica
	load2 := make([]int, n) // slots held as second replica
	pairs := make([][2]int, NumSlots)
	for s := 0; s < NumSlots; s++ {
		point := uint64(s) << (64 - SlotBits)
		start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= point })
		first := -1
		for i := 0; i < len(ring); i++ {
			cand := ring[(start+i)%len(ring)].node
			if load1[cand] < cap1 {
				first = cand
				break
			}
		}
		if first == -1 { // cannot happen: total capacity ≥ NumSlots
			first = ring[start%len(ring)].node
		}
		load1[first]++
		second := -1
		for i := 0; i < len(ring) && n > 1; i++ {
			cand := ring[(start+i)%len(ring)].node
			if cand != first && load2[cand] < cap1 {
				second = cand
				break
			}
		}
		if second == -1 && n > 1 {
			for _, orig := range order {
				if orig != first {
					second = orig
					break
				}
			}
		}
		if second >= 0 {
			load2[second]++
		}
		pairs[s] = [2]int{first, second}
	}
	return pairs, nil
}

// PairLoads tallies, per node index, how many slots it serves as
// first and as second replica — the ring-ownership numbers the router
// exports as gauges.
func PairLoads(pairs [][2]int, n int) (first, second []int) {
	first = make([]int, n)
	second = make([]int, n)
	for _, p := range pairs {
		first[p[0]]++
		if p[1] >= 0 {
			second[p[1]]++
		}
	}
	return first, second
}
