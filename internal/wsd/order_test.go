// Stable component IDs, the display order and the per-version counters:
// a normalized decomposition numbers its components densely in display
// order; an update's successor keeps its survivors' IDs, and its display
// order — the permutation printing and the positional accessors walk —
// is built on first use. Along update chains the successor must read
// positionally exactly like a from-scratch normalization of the same
// world set, and the carried choice-axis count must equal a recount.
package wsd_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// countUnits recounts the choice axes by walking the live components:
// one per tuple-level component, one per open template slot.
func countUnits(w *wsd.WSD) int64 {
	var n int64
	for _, ci := range w.Order() {
		_, cells, ok := w.TemplateSlots(int(ci))
		if !ok {
			n++
			continue
		}
		for _, cell := range cells {
			if len(cell) > 1 {
				n++
			}
		}
	}
	return n
}

// checkOrder holds w's positional reads to those of ref, a from-scratch
// normalization of the same world set: the same alternative counts and
// the same world under a seeded run of choice vectors, and the live IDs
// of w exactly the components Order names.
func checkOrder(t *testing.T, tag string, w, ref *wsd.WSD, rng *rand.Rand) {
	t.Helper()
	order := w.Order()
	if len(order) != w.LiveComponents() || len(order) != ref.LiveComponents() {
		t.Fatalf("%s: Order names %d components, %d live, reference %d", tag, len(order), w.LiveComponents(), ref.LiveComponents())
	}
	var live []int32
	for ci := 0; ci < w.Components(); ci++ {
		if w.AltCount(ci) > 0 {
			live = append(live, int32(ci))
		}
	}
	if sorted := slices.Sorted(slices.Values(order)); !slices.Equal(sorted, live) {
		t.Fatalf("%s: Order %v is not a permutation of the live IDs %v", tag, order, live)
	}
	alts := w.Alternatives()
	if want := ref.Alternatives(); !slices.Equal(alts, want) {
		t.Fatalf("%s: Alternatives %v, reference %v", tag, alts, want)
	}
	if got, want := w.UnitCount(), countUnits(ref); got != want || countUnits(w) != want {
		t.Fatalf("%s: UnitCount %d, recount %d, reference %d", tag, got, countUnits(w), want)
	}
	if w.Empty() {
		return
	}
	choice := make([]int, len(alts))
	for trial := 0; trial < 4; trial++ {
		for p := range choice {
			choice[p] = rng.Intn(min(alts[p], 1<<20))
		}
		if got, want := w.World(choice), ref.World(choice); !got.Equal(want) {
			t.Fatalf("%s: World(%v) = %s, reference %s", tag, choice, got, want)
		}
	}
}

// reference normalizes w's world set from scratch.
func reference(t *testing.T, w *wsd.WSD) *wsd.WSD {
	t.Helper()
	ref := w.Clone()
	ref.AddComponent(wsd.Alt{}) // a trivial component: forces a full Normalize
	if err := ref.Normalize(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestUnitCountMatchesFlattening checks the identity order and the
// choice-axis count on generated mixed decompositions and on the
// tracked builders: a freshly normalized store numbers its components
// in display order.
func TestUnitCountMatchesFlattening(t *testing.T) {
	ws := []*wsd.WSD{gen.MillionWorldWSD(), gen.CenturyWSD(), gen.GroupedWSD(300, 30)}
	for seed := int64(0); seed < 80; seed++ {
		w, err := gen.RandomWSD(seed, 6, 3, 2+int(seed)%2, 6)
		if err == nil {
			ws = append(ws, w)
		}
	}
	for i, w := range ws {
		order := w.Order()
		for p, ci := range order {
			if int(ci) != p {
				t.Fatalf("case %d: a normalized store's order %v is not the identity", i, order)
			}
		}
		if got, want := w.UnitCount(), countUnits(w); got != want {
			t.Fatalf("case %d: UnitCount %d, recount %d", i, got, want)
		}
	}
}

// TestOrderAndUnitsAcrossUpdates walks random update chains over tuple-
// and attribute-level decompositions. Every successor must read
// positionally like a fresh normalization of itself, and its parent
// must read as before the update.
func TestOrderAndUnitsAcrossUpdates(t *testing.T) {
	steps := 0
	for seed := int64(0); seed < 80; seed++ {
		arity := 2 + int(seed%2)
		cur, err := gen.RandomWSD(seed, 5, 3, arity, 5)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0x04de4))
		for step := 0; step < 10 && !cur.Empty(); step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			before, order := cur.String(), slices.Clone(cur.Order())
			next, err := cur.ApplyUpdate(randomUpdate(rng, arity, 5))
			if err != nil {
				break // entanglement guard: the chain ends here
			}
			checkOrder(t, tag, next, reference(t, next), rng)
			if cur.String() != before || !slices.Equal(cur.Order(), order) {
				t.Fatalf("%s: the update changed its parent's order", tag)
			}
			steps++
			cur = next
		}
	}
	if steps < 200 {
		t.Fatalf("only %d update steps", steps)
	}
}

// TestOrderRebuiltAfterMutation mutates decompositions whose order is
// already built: components added in place (the next read
// renormalizes) and a component with no alternatives (the
// decomposition becomes ∅). The stale order must never be read.
func TestOrderRebuiltAfterMutation(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	if err := w.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"b", "x"}}}, wsd.Alt{}); err != nil {
		t.Fatal(err)
	}
	if got := w.Order(); len(got) != 1 || w.UnitCount() != 1 {
		t.Fatalf("one component: order %v, %d units", got, w.UnitCount())
	}
	if err := w.AddTemplateComponent("R", []string{"a"}, []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	if got := w.Order(); len(got) != 2 || !w.IsTemplate(int(got[0])) || w.UnitCount() != 2 {
		t.Fatalf("template added: order %v (the template sorts first), %d units", got, w.UnitCount())
	}
	next, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{{Kind: wsd.OpInsert, Rel: "R", Args: []string{"c", "x"}}}})
	if err != nil {
		t.Fatal(err)
	}
	next.Order()
	if err := next.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"d", "x"}}}, wsd.Alt{}); err != nil {
		t.Fatal(err)
	}
	if got := next.Order(); len(got) != 4 || next.UnitCount() != 4 {
		t.Fatalf("component added to an update's successor: order %v, %d units", got, next.UnitCount())
	}
	checkOrder(t, "successor plus a component", next, reference(t, next), rand.New(rand.NewSource(1)))
	if err := w.AddComponent(); err != nil {
		t.Fatal(err)
	}
	if got := w.Order(); len(got) != 0 || !w.Empty() || w.UnitCount() != 0 {
		t.Fatalf("emptied: order %v, %d units", got, w.UnitCount())
	}
}

// TestOrderConcurrentFirstBuild races 8 goroutines to the first build
// of one shared successor's display order; each must read the same
// complete order and print the same text (the race detector checks the
// publication).
func TestOrderConcurrentFirstBuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		base, err := gen.RandomWSD(seed, 6, 3, 2, 6)
		if err != nil {
			continue
		}
		w, err := base.ApplyUpdate(randomUpdate(rand.New(rand.NewSource(seed)), 2, 6))
		if err != nil {
			continue
		}
		ref := reference(t, w)
		want, wantText := ref.Alternatives(), ref.String()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 && w.String() != wantText {
					t.Errorf("seed %d goroutine %d: printed form differs from the reference", seed, g)
				}
				if got := w.Alternatives(); !slices.Equal(got, want) {
					t.Errorf("seed %d goroutine %d: Alternatives %v, want %v", seed, g, got, want)
				}
			}(g)
		}
		wg.Wait()
	}
}
