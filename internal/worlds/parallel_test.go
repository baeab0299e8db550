package worlds

import (
	"sort"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/valuation"
)

func forceSharding(t *testing.T) {
	t.Helper()
	old := valuation.MinShardedSpace
	valuation.MinShardedSpace = 1
	t.Cleanup(func() { valuation.MinShardedSpace = old })
}

func sortedKeys(ws []*rel.Instance) []string {
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = w.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestParallelAllMatchesSequential is the worlds half of the determinism
// contract: the materialized rep(d) must be the same set at every worker
// count, for every representation kind the generator produces.
func TestParallelAllMatchesSequential(t *testing.T) {
	forceSharding(t)
	build := func(seed int64, kind int) *table.Database {
		switch kind {
		case 0:
			return table.DB(gen.CoddTable(seed, "T", 3, 2, 3, 0.5))
		case 1:
			return table.DB(gen.ETable(seed, "T", 3, 2, 3, 2, 0.5))
		case 2:
			return table.DB(gen.ITable(seed, "T", 3, 2, 3, 2, 0.5))
		default:
			return table.DB(gen.CTable(seed, "T", 3, 2, 3, 2, 0.5, 0.5))
		}
	}
	for kind := 0; kind < 4; kind++ {
		for seed := int64(0); seed < 6; seed++ {
			d := build(seed, kind)
			want := sortedKeys(All(d))
			for _, workers := range []int{1, 2, 8} {
				got := sortedKeys(Options{Workers: workers}.All(d))
				if len(got) != len(want) {
					t.Fatalf("kind %d seed %d workers %d: %d worlds, want %d\n%s",
						kind, seed, workers, len(got), len(want), d)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("kind %d seed %d workers %d: world sets differ\n%s",
							kind, seed, workers, d)
					}
				}
				if n := (Options{Workers: workers}).Count(d); n != len(want) {
					t.Fatalf("kind %d seed %d workers %d: Count=%d want %d",
						kind, seed, workers, n, len(want))
				}
			}
		}
	}
}
