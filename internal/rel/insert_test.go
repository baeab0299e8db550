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

// TestInsertAllocsPerFact: into a presized relation, a new fact
// allocates only its tuple copy, and a duplicate nothing.
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
	if perFact := (allocs - fixed) / n; perFact > 1 {
		t.Errorf("%.2f allocations per new fact, want at most 1 (the tuple copy)", perFact)
	}
	if dup := testing.AllocsPerRun(5, func() {
		for _, tu := range tuples {
			r.Insert(tu)
		}
	}); dup != 0 {
		t.Errorf("re-inserting %d present facts allocated %.0f times, want 0", n, dup)
	}
}
