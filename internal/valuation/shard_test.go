package valuation

import (
	"sort"
	"sync"
	"testing"

	"pw/internal/sym"
)

func varsU(names ...string) *sym.Universe {
	vs := make([]sym.ID, len(names))
	for i, n := range names {
		vs[i] = sym.Var(n)
	}
	return sym.NewUniverse(vs)
}

// collect gathers every valuation an enumerator visits as a sorted list of
// canonical strings, with a mutex so parallel enumerators can share it.
type collect struct {
	mu   sync.Mutex
	seen []string
}

func (c *collect) add(v V) bool {
	c.mu.Lock()
	c.seen = append(c.seen, v.String())
	c.mu.Unlock()
	return false
}

func (c *collect) sorted() []string {
	sort.Strings(c.seen)
	return c.seen
}

func lowerThreshold(t *testing.T) {
	t.Helper()
	old := MinShardedSpace
	MinShardedSpace = 1
	t.Cleanup(func() { MinShardedSpace = old })
}

func TestShardsPartitionTheSpace(t *testing.T) {
	lowerThreshold(t)
	u := varsU("x", "y", "z")
	domain := ids("a", "b", "c", "d")
	shards, ok := Shards(u, domain, 7)
	if !ok {
		t.Fatal("expected shardable space")
	}
	total := Count(u, domain)
	covered := 0
	prevHi := 0
	for _, s := range shards {
		if s.Lo != prevHi {
			t.Fatalf("gap: shard starts at %d, previous ended at %d", s.Lo, prevHi)
		}
		covered += s.Hi - s.Lo
		prevHi = s.Hi
	}
	if covered != total || prevHi != total {
		t.Fatalf("shards cover %d of %d", covered, total)
	}
	// Ranged enumeration over all shards visits exactly the sequential set.
	var seq, par collect
	Enumerate(u, domain, seq.add)
	for _, s := range shards {
		EnumerateRange(u, domain, s, par.add)
	}
	if got, want := par.seen, seq.seen; len(got) != len(want) {
		t.Fatalf("ranges visited %d valuations, sequential %d", len(got), len(want))
	}
	for i := range seq.seen {
		if par.seen[i] != seq.seen[i] {
			t.Fatalf("range order diverges at %d: %s vs %s", i, par.seen[i], seq.seen[i])
		}
	}
}

func TestEnumerateShardedVisitsSameSet(t *testing.T) {
	lowerThreshold(t)
	u := varsU("x", "y", "z")
	domain := ids("a", "b", "c")
	var seq collect
	Enumerate(u, domain, seq.add)
	for _, workers := range []int{1, 2, 8} {
		var par collect
		if EnumerateSharded(u, domain, workers, par.add) {
			t.Fatalf("workers=%d: no-exit enumeration reported found", workers)
		}
		s, p := seq.sorted(), par.sorted()
		if len(s) != len(p) {
			t.Fatalf("workers=%d: visited %d, want %d", workers, len(p), len(s))
		}
		for i := range s {
			if s[i] != p[i] {
				t.Fatalf("workers=%d: set diverges at %d: %s vs %s", workers, i, p[i], s[i])
			}
		}
	}
}

func TestEnumerateShardedEarlyExit(t *testing.T) {
	lowerThreshold(t)
	u := varsU("x", "y", "z")
	domain := ids("a", "b", "c", "d")
	target := sym.Const("c")
	for _, workers := range []int{1, 2, 8} {
		found := EnumerateSharded(u, domain, workers, func(v V) bool {
			return v.Vals[0] == target && v.Vals[1] == target && v.Vals[2] == target
		})
		if !found {
			t.Fatalf("workers=%d: witness not found", workers)
		}
		missed := EnumerateSharded(u, domain, workers, func(v V) bool { return false })
		if missed {
			t.Fatalf("workers=%d: found nonexistent witness", workers)
		}
	}
}

func TestEnumerateCanonicalShardedVisitsSameSet(t *testing.T) {
	lowerThreshold(t)
	u := varsU("x", "y", "z", "w")
	base := ids("a", "b")
	var seq collect
	EnumerateCanonical(u, base, "~z", seq.add)
	for _, workers := range []int{1, 2, 8} {
		var par collect
		if EnumerateCanonicalSharded(u, base, "~z", workers, nil, par.add) {
			t.Fatalf("workers=%d: no-exit enumeration reported found", workers)
		}
		s, p := seq.sorted(), par.sorted()
		if len(s) != len(p) {
			t.Fatalf("workers=%d: visited %d, want %d", workers, len(p), len(s))
		}
		for i := range s {
			if s[i] != p[i] {
				t.Fatalf("workers=%d: set diverges at %d: %s vs %s", workers, i, p[i], s[i])
			}
		}
	}
}

func TestEnumerateCanonicalShardedEarlyExit(t *testing.T) {
	lowerThreshold(t)
	u := varsU("x", "y", "z")
	base := ids("a", "b", "c")
	fresh1 := sym.Const("~z1")
	for _, workers := range []int{2, 8} {
		// A witness needing two distinct fresh constants: only reachable
		// through the restricted-growth introduction order.
		found := EnumerateCanonicalSharded(u, base, "~z", workers, nil, func(v V) bool {
			return v.Vals[2] == fresh1
		})
		if !found {
			t.Fatalf("workers=%d: canonical witness not found", workers)
		}
	}
}

func TestCanonCountMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct{ b, k int }{{0, 1}, {0, 3}, {1, 2}, {2, 3}, {3, 2}} {
		u := varsU("x", "y", "z", "w")
		vs := u.Vars()[:tc.k]
		uu := sym.NewUniverse(vs)
		base := ids("a", "b", "c")[:tc.b]
		n := 0
		EnumerateCanonical(uu, base, "~z", func(V) bool { n++; return false })
		if got := canonCount(tc.b, tc.k, 1<<30); got != n {
			t.Errorf("canonCount(%d,%d) = %d, enumeration visits %d", tc.b, tc.k, got, n)
		}
	}
}
