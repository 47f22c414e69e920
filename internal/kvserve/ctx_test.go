package kvserve

import (
	"math/rand"
	"slices"
	"testing"

	"lazyp/internal/memsim"
)

// TestLineSet holds a lineSet to an exact set on both sides of
// lineSetScanMax: take returns every line added, once, in first-added
// order, whatever duplicates came between; the map exists only past the
// scan bound; and take leaves the set empty with its map dropped, ready
// for the next round.
func TestLineSet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s lineSet
	for _, n := range []int{1, lineSetScanMax - 1, lineSetScanMax, lineSetScanMax + 1, 4 * lineSetScanMax, 3} {
		var want []memsim.Addr
		for i := 0; i < n; i++ {
			la := memsim.Addr(r.Intn(1<<20)+1) * memsim.LineSize
			if slices.Contains(want, la) {
				continue
			}
			want = append(want, la)
			s.add(la)
			for d := r.Intn(3); d > 0; d-- {
				s.add(want[r.Intn(len(want))])
			}
		}
		if grown := len(want) > lineSetScanMax; (s.index != nil) != grown {
			t.Fatalf("%d lines: map present %v, want %v", len(want), s.index != nil, grown)
		}
		if got := s.take(); !slices.Equal(got, want) {
			t.Fatalf("%d lines: take returned %d lines, not the %d added in first-added order", len(want), len(got), len(want))
		}
		if len(s.order) != 0 || s.index != nil {
			t.Fatalf("after take: %d lines left, map kept %v", len(s.order), s.index != nil)
		}
	}
}
