// Property tests for the choice-axis table: it equals a from-scratch
// flattening of the decomposition through the public accessors, on
// generated tuple- and attribute-level decompositions, along random
// update chains — on each successor, on a clone and on the untouched
// parent — after in-place mutation of an already indexed decomposition,
// and under a concurrent first build on one shared decomposition.
package wsd_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// flatAxis is one axis of a from-scratch flattening.
type flatAxis struct {
	comp, slot, count int
	cells             []sym.ID
}

// flattenAxes walks every component through the public accessors: a
// tuple-level component is one axis, a template one axis per open slot.
func flattenAxes(w *wsd.WSD) []flatAxis {
	var out []flatAxis
	for ci := 0; ci < w.Components(); ci++ {
		if _, cells, ok := w.TemplateSlots(ci); ok {
			for si, cell := range cells {
				if len(cell) > 1 {
					out = append(out, flatAxis{ci, si, len(cell), cell})
				}
			}
			continue
		}
		out = append(out, flatAxis{ci, -1, w.AltCount(ci), nil})
	}
	return out
}

// checkAxes compares w's axis table with the flattening: owner, count
// and cells per axis, the (component, slot) → axis lookup both ways
// (fixed slots and the wrong kind resolve nowhere), and the
// capacity-clipping of the shared slices.
func checkAxes(t *testing.T, tag string, w *wsd.WSD) {
	t.Helper()
	want := flattenAxes(w)
	a := w.Axes()
	counts, cells := a.Counts(), a.Cells()
	if a.Len() != len(want) || len(counts) != len(want) || len(cells) != len(want) {
		t.Fatalf("%s: %d axes (%d counts, %d cells), flattening has %d", tag, a.Len(), len(counts), len(cells), len(want))
	}
	if cap(counts) != len(counts) || cap(cells) != len(cells) {
		t.Errorf("%s: shared slices not capacity-clipped (cap %d/%d, len %d)", tag, cap(counts), cap(cells), len(want))
	}
	for u, f := range want {
		if ci, slot := a.Owner(u); ci != f.comp || slot != f.slot {
			t.Errorf("%s: Owner(%d) = (%d, %d), want (%d, %d)", tag, u, ci, slot, f.comp, f.slot)
		}
		if int(counts[u]) != f.count || !slices.Equal(cells[u], f.cells) {
			t.Errorf("%s: axis %d count %d cells %v, want %d %v", tag, u, counts[u], cells[u], f.count, f.cells)
		}
		if got := a.Axis(f.comp, f.slot); got != u {
			t.Errorf("%s: Axis(%d, %d) = %d, want %d", tag, f.comp, f.slot, got, u)
		}
	}
	for ci := 0; ci < w.Components(); ci++ {
		_, tcells, ok := w.TemplateSlots(ci)
		if !ok {
			if got := a.Axis(ci, 0); got != -1 {
				t.Errorf("%s: Axis(%d, 0) on a tuple-level component = %d, want -1", tag, ci, got)
			}
			continue
		}
		if got := a.Axis(ci, -1); got != -1 {
			t.Errorf("%s: Axis(%d, -1) on a template = %d, want -1", tag, ci, got)
		}
		for si, cell := range tcells {
			if got := a.Axis(ci, si); len(cell) < 2 && got != -1 {
				t.Errorf("%s: Axis(%d, %d) on a fixed slot = %d, want -1", tag, ci, si, got)
			}
		}
	}
}

// TestAxesMatchFlattening checks the table on generated mixed
// decompositions of arity 2 and 3 and on the tracked builders.
func TestAxesMatchFlattening(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 80; seed++ {
		w, err := gen.RandomWSD(seed, 6, 3, 2+int(seed)%2, 6)
		if err != nil {
			continue
		}
		checkAxes(t, fmt.Sprintf("seed %d", seed), w)
		cases++
	}
	if cases < 60 {
		t.Fatalf("only %d generated cases", cases)
	}
	checkAxes(t, "million", gen.MillionWorldWSD())
	checkAxes(t, "century", gen.CenturyWSD())
}

// TestAxesAcrossUpdates walks random update chains. Before each step
// the parent's table is built; after it, the successor, a clone of it,
// and the parent (whose table must not have been carried into the
// successor, nor disturbed by it) must all match the flattening.
func TestAxesAcrossUpdates(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cur, err := gen.RandomWSD(seed, 5, 3, 2+int(seed)%2, 5)
		if err != nil {
			continue
		}
		arity := cur.Schema()[0].Arity
		rng := rand.New(rand.NewSource(seed ^ 0xa4e5))
		for step := 0; step < 6; step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			checkAxes(t, tag+" parent", cur)
			next, err := cur.ApplyUpdate(randomUpdate(rng, arity, 5))
			if err != nil {
				break // entanglement guard: the chain ends here
			}
			checkAxes(t, tag+" successor", next)
			checkAxes(t, tag+" clone", next.Clone())
			checkAxes(t, tag+" parent after", cur)
			cur = next
		}
	}
}

// TestAxesRebuiltAfterMutation mutates decompositions whose table is
// already built: components added in place (the next read renormalizes)
// and a component with no alternatives (the decomposition becomes ∅).
// The stale table must never be read.
func TestAxesRebuiltAfterMutation(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	if err := w.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"a", "x"}}}, wsd.Alt{}); err != nil {
		t.Fatal(err)
	}
	checkAxes(t, "one component", w)
	if err := w.AddTemplateComponent("R", []string{"b"}, []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"c", "x"}}}, wsd.Alt{{Rel: "R", Args: rel.Fact{"c", "y"}}}); err != nil {
		t.Fatal(err)
	}
	checkAxes(t, "three components", w)
	if got := w.Axes().Len(); got != 3 {
		t.Fatalf("three components: %d axes, want 3", got)
	}
	if err := w.AddComponent(); err != nil {
		t.Fatal(err)
	}
	checkAxes(t, "empty world set", w)
	if got := w.Axes().Len(); got != 0 {
		t.Fatalf("empty world set: %d axes, want 0", got)
	}
}

// TestAxesConcurrentFirstBuild races 8 goroutines to the first build
// of one shared decomposition's table; each must read a complete table,
// and all the same one (the race detector checks the publication).
func TestAxesConcurrentFirstBuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		w, err := gen.RandomWSD(seed, 6, 3, 2+int(seed)%2, 6)
		if err != nil {
			continue
		}
		want := flattenAxes(w.Clone())
		got := make([]*wsd.Axes, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				a := w.Axes()
				got[g] = a
				if a.Len() != len(want) {
					t.Errorf("seed %d goroutine %d: %d axes, want %d", seed, g, a.Len(), len(want))
					return
				}
				for u, f := range want {
					if int(a.Counts()[u]) != f.count || a.Axis(f.comp, f.slot) != u {
						t.Errorf("seed %d goroutine %d: axis %d disagrees with the flattening", seed, g, u)
					}
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if got[g] != got[0] {
				t.Errorf("seed %d: goroutine %d read a different table than goroutine 0", seed, g)
			}
		}
	}
}
