package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lazyp/internal/memsim"
	"lazyp/internal/sim"
)

// The cache golden pins what the simulated cache hierarchy decides —
// which accesses hit, which frame a miss fills, which dirty line a fill
// evicts — through everything that decision moves: the session metrics
// of dumpResult and every memsim.Stats counter. It was captured before
// the L1/L2 lookup gained its way predictor, with
//
//	go test ./internal/harness -run CacheGolden -update-cache-golden
//
// and must never be regenerated alongside a memsim change: a lookup
// shortcut that answers one probe differently, or a victim rule that
// picks another frame, moves these numbers.
var updateCacheGolden = flag.Bool("update-cache-golden", false,
	"rewrite testdata/cache_golden.txt from the current simulator (capture before a memsim change only)")

const cacheGoldenPath = "testdata/cache_golden.txt"

// dumpCacheStats renders every memsim.Stats field.
func dumpCacheStats(s memsim.Stats) string {
	return fmt.Sprintf("  cache={l1h=%d l2a=%d l2h=%d l2m=%d ivn=%d inv=%d upg=%d "+
		"vdur={max=%d sum=%d n=%d} pf=%d}\n",
		s.L1Hits, s.L2Accesses, s.L2Hits, s.L2Misses, s.Interventions,
		s.Invalidations, s.Upgrades, s.MaxVdur, s.SumVdur, s.NumVdur,
		s.Prefetches)
}

// cacheGoldenSpecs is the quick bench matrix plus one TMM run on a
// 96 KB 12-way L2: 128 sets of 12 ways, a frame count that is not a
// power of two, small enough that the L2 evicts dirty lines, so its
// victim choice reaches the NVMM counters.
func cacheGoldenSpecs() (keys []string, specs []Spec) {
	for _, s := range BenchMatrix(Options{Quick: true}) {
		keys = append(keys, fmt.Sprintf("%s/%s", s.Workload, s.Variant))
		specs = append(specs, s)
	}
	hier := memsim.DefaultConfig(8)
	hier.L2Size, hier.L2Ways = 96<<10, 12
	keys = append(keys, "tmm/lp/l2=96K12w")
	specs = append(specs, Spec{Workload: "tmm", Variant: VariantLP, N: 128,
		Tile: 16, Threads: 8, WindowOuter: 2, Sim: sim.Config{Hier: hier}})
	return keys, specs
}

func cacheGoldenDump(t *testing.T) string {
	var sb strings.Builder
	keys, specs := cacheGoldenSpecs()
	for i, s := range specs {
		r := NewSession(s).Execute()
		if i == len(specs)-1 && r.EvictW == 0 {
			t.Fatalf("%s wrote no evicted lines: its L2 victims reach no counter", keys[i])
		}
		sb.WriteString(dumpResult(keys[i], r))
		sb.WriteString(dumpCacheStats(r.Cache))
	}
	return sb.String()
}

// TestCacheGolden asserts the cache hierarchy reproduces, byte for
// byte, the golden captured before the way predictor. See the comment
// on updateCacheGolden.
func TestCacheGolden(t *testing.T) {
	got := cacheGoldenDump(t)
	if *updateCacheGolden {
		if err := os.WriteFile(cacheGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", cacheGoldenPath)
		return
	}
	want, err := os.ReadFile(cacheGoldenPath)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "<missing>", "<missing>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("cache hierarchy diverged from the golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
