package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestSlotOfInRange(t *testing.T) {
	for _, k := range []uint64{0, 1, 0xdeadbeef, ^uint64(0), 1 << 40} {
		if s := SlotOf(k); s < 0 || s >= NumSlots {
			t.Fatalf("SlotOf(%#x) = %d out of range", k, s)
		}
	}
	// The mix must spread: 10k sequential keys should touch most slots.
	hit := map[int]bool{}
	for k := uint64(0); k < 10000; k++ {
		hit[SlotOf(k)] = true
	}
	if len(hit) < NumSlots*9/10 {
		t.Fatalf("sequential keys hit only %d/%d slots", len(hit), NumSlots)
	}
}

func TestBuildPairsProperties(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("node-%d", i)
		}
		pairs, err := BuildPairs(ids)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(pairs) != NumSlots {
			t.Fatalf("n=%d: %d slots, want %d", n, len(pairs), NumSlots)
		}
		for s, p := range pairs {
			if p[0] < 0 || p[0] >= n {
				t.Fatalf("n=%d slot %d: first %d out of range", n, s, p[0])
			}
			if p[1] < 0 || p[1] >= n || p[1] == p[0] {
				t.Fatalf("n=%d slot %d: second %d invalid (first %d)", n, s, p[1], p[0])
			}
		}
		// Bounded load: no node may own more than loadFactor × fair
		// share (+1 for rounding) in either role.
		cap1 := int(ringLoadFactor*float64(NumSlots)/float64(n)) + 1
		first, second := PairLoads(pairs, n)
		sum1, sum2 := 0, 0
		for i := 0; i < n; i++ {
			if first[i] > cap1 {
				t.Fatalf("n=%d: node %d owns %d primary slots, cap %d", n, i, first[i], cap1)
			}
			if second[i] > cap1 {
				t.Fatalf("n=%d: node %d owns %d follower slots, cap %d", n, i, second[i], cap1)
			}
			sum1 += first[i]
			sum2 += second[i]
		}
		if sum1 != NumSlots || sum2 != NumSlots {
			t.Fatalf("n=%d: loads sum to %d/%d, want %d", n, sum1, sum2, NumSlots)
		}
	}
}

func TestBuildPairsOrderIndependent(t *testing.T) {
	a, err := BuildPairs([]string{"alpha", "beta", "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	// Same ids permuted: slot s must map to the same *identities*.
	b, err := BuildPairs([]string{"gamma", "alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	idsA := []string{"alpha", "beta", "gamma"}
	idsB := []string{"gamma", "alpha", "beta"}
	for s := 0; s < NumSlots; s++ {
		if idsA[a[s][0]] != idsB[b[s][0]] || idsA[a[s][1]] != idsB[b[s][1]] {
			t.Fatalf("slot %d differs across id orderings: (%s,%s) vs (%s,%s)",
				s, idsA[a[s][0]], idsA[a[s][1]], idsB[b[s][0]], idsB[b[s][1]])
		}
	}
}

func TestBuildPairsSingleNode(t *testing.T) {
	pairs, err := BuildPairs([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range pairs {
		if p[0] != 0 || p[1] != -1 {
			t.Fatalf("slot %d: want (0,-1), got %v", s, p)
		}
	}
}

func TestBuildPairsDuplicateID(t *testing.T) {
	if _, err := BuildPairs([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

// TestBuildPairsGolden pins the slot table of a few memberships: the
// ring's shape is a constant, and a change to it moves every slot a
// running cluster has placed.
func TestBuildPairsGolden(t *testing.T) {
	for _, c := range []struct {
		ids  []string
		want string
	}{
		{[]string{"n0"}, "f35d304fda9dd51f5a41956fcbdb623b8b0d63bcde3a068d0ffe948c0ba0977b"},
		{[]string{"n0", "n1"}, "bd8d2fc5e801b5ab45f19d3d5e036227a390dc8d3af5b9e85f9582d448fc9114"},
		{[]string{"n0", "n1", "n2"}, "7a4fa0f3fc991a14fb21dff4ee8606adfba61a0ae2fae3e28ad5fad49e352fab"},
		{[]string{"a", "b", "c", "d", "e"}, "fa1691fd9f369b18681f040424fc41e445cab212598599f442e4a0703cc6902b"},
	} {
		pairs, err := BuildPairs(c.ids)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(pairs)))); got != c.want {
			t.Errorf("BuildPairs(%v) hashes to %s, want %s", c.ids, got, c.want)
		}
	}
}
