package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pw/internal/sym"
)

// TestInsertMatchesReferenceSet inserts random tuples with many
// duplicates and checks Insert's answer, Len, Contains and the
// insertion order against a map, once with real fingerprints and once
// with four fingerprints in all, so every chain holds many tuples.
func TestInsertMatchesReferenceSet(t *testing.T) {
	consts := make([]sym.ID, 12)
	for i := range consts {
		consts[i] = sym.Const(fmt.Sprintf("ins%d", i))
	}
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				orig := tupleHash
				tupleHash = func(ids []sym.ID) uint64 { return orig(ids) % 4 }
				defer func() { tupleHash = orig }()
			}
			rng := rand.New(rand.NewSource(7))
			r := NewRelation("R", 2)
			seen := make(map[[2]sym.ID]bool)
			var order []sym.Tuple
			buf := make(sym.Tuple, 2)
			for n := 0; n < 2000; n++ {
				buf[0], buf[1] = consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]
				key := [2]sym.ID{buf[0], buf[1]}
				if got := r.Insert(buf); got == seen[key] {
					t.Fatalf("insert %d of %v: new = %v, reference says %v", n, key, got, !seen[key])
				}
				if !seen[key] {
					seen[key] = true
					order = append(order, sym.Tuple{buf[0], buf[1]})
				}
			}
			if r.Len() != len(seen) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(seen))
			}
			if !slices.EqualFunc(r.Tuples(), order, sym.Tuple.Equal) {
				t.Fatal("Tuples is not the first-insertion order")
			}
			for _, a := range consts {
				for _, b := range consts {
					if got, want := r.Contains(sym.Tuple{a, b}), seen[[2]sym.ID{a, b}]; got != want {
						t.Fatalf("Contains(%v, %v) = %v, want %v", a, b, got, want)
					}
				}
			}
		})
	}
}

// TestInsertIntoCloneLeavesOriginal: a clone shares no index state with
// its original — inserting into either leaves the other as it was.
func TestInsertIntoCloneLeavesOriginal(t *testing.T) {
	orig := tupleHash
	tupleHash = func([]sym.ID) uint64 { return 1 } // one chain: the clone must not extend the original's
	defer func() { tupleHash = orig }()
	r := NewRelation("R", 1)
	for i := 0; i < 10; i++ {
		r.AddRow(fmt.Sprintf("c%d", i))
	}
	c := r.Clone()
	for i := 10; i < 20; i++ {
		c.AddRow(fmt.Sprintf("c%d", i))
	}
	r.AddRow("only-original")
	if r.Len() != 11 || c.Len() != 20 {
		t.Fatalf("Len: original %d, clone %d; want 11 and 20", r.Len(), c.Len())
	}
	for i := 0; i < 20; i++ {
		f := Fact{fmt.Sprintf("c%d", i)}
		if r.Has(f) != (i < 10) || !c.Has(f) {
			t.Fatalf("fact %v: original has %v, clone has %v", f, r.Has(f), c.Has(f))
		}
	}
	if c.Has(Fact{"only-original"}) {
		t.Fatal("a fact inserted into the original reached the clone")
	}
}

// TestInsertAllocsPerFact: into a relation presized by Grow, a new
// fact allocates nothing — its IDs are copied into the arena Grow
// reserved — and neither does a duplicate.
func TestInsertAllocsPerFact(t *testing.T) {
	const n = 512
	tuples := make([]sym.Tuple, n)
	for i := range tuples {
		tuples[i] = sym.Tuple{sym.Const(fmt.Sprintf("a%d", i)), sym.Const(fmt.Sprintf("b%d", i%7))}
	}
	var r *Relation
	fixed := testing.AllocsPerRun(5, func() {
		r = NewRelation("R", 2)
		r.Grow(n)
	})
	allocs := testing.AllocsPerRun(5, func() {
		r = NewRelation("R", 2)
		r.Grow(n)
		for _, tu := range tuples {
			r.Insert(tu)
		}
	})
	t.Logf("%.0f allocations for %d new facts, %.0f of them creating the presized relation", allocs, n, fixed)
	if allocs != fixed {
		t.Errorf("%d new facts into a presized relation allocated %.0f times beyond Grow, want 0", n, allocs-fixed)
	}
	if dup := testing.AllocsPerRun(5, func() {
		for _, tu := range tuples {
			r.Insert(tu)
		}
	}); dup != 0 {
		t.Errorf("re-inserting %d present facts allocated %.0f times, want 0", n, dup)
	}
}

// TestTupleAppendLeavesNeighbour: a stored tuple is a window of the
// relation's arena capped at its own end, so appending to one that
// Tuples returned copies it and leaves the next tuple — and the
// relation — as they were. That holds presized, grown chunk by chunk,
// and in a clone's flat arena.
func TestTupleAppendLeavesNeighbour(t *testing.T) {
	r, plain := NewRelation("R", 2), NewRelation("R", 2)
	r.Grow(3)
	for _, f := range []Fact{{"p", "q"}, {"r", "s"}, {"t", "u"}} {
		r.Add(f)
		plain.Add(f)
	}
	for _, rr := range []*Relation{r, plain, r.Clone()} {
		want := slices.Clone(rr.Tuples())
		for i := range want {
			want[i] = want[i].Clone()
		}
		for i, tu := range rr.Tuples() {
			if cap(tu) != len(tu) {
				t.Fatalf("tuple %d has capacity %d beyond its length %d", i, cap(tu), len(tu))
			}
			grown := append(tu, sym.Const("intruder"), sym.Const("intruder"))
			grown[0] = sym.Const("changed")
		}
		if !slices.EqualFunc(rr.Tuples(), want, sym.Tuple.Equal) {
			t.Fatalf("appending to returned tuples changed the relation: %v, want %v", rr.Tuples(), want)
		}
		if !rr.Has(Fact{"r", "s"}) || !rr.Has(Fact{"t", "u"}) {
			t.Fatal("a neighbour's fact is no longer found")
		}
	}
}
