// The delta-equals-rebuild property of the incremental install: an
// update's successor derives its factComp/certain/attrByRel arrays, its
// hole count and its posting index from the parent's by a remap plus
// the added components, and every one of them must equal a from-scratch
// rebuild over a clone. The parent, indexed in full before each step,
// must come through unchanged. An update that installs nothing shares
// the parent's index (both versions hold the same components); any
// install gives the successor its own, carrying every column the parent
// had built.
package wsd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// templateOp returns an operation aimed at one of w's templates (nil
// when it has none): a delete, assume or assume-not of an instantiation,
// or an insert of a fact sharing the template's first slot, which the
// install's overlap closure must pull the template into.
func templateOp(rng *rand.Rand, w *wsd.WSD) *wsd.UpdateOp {
	var tmpls []int
	for ci := 0; ci < w.Components(); ci++ {
		if w.IsTemplate(ci) {
			tmpls = append(tmpls, ci)
		}
	}
	if len(tmpls) == 0 {
		return nil
	}
	name, cells, _ := w.TemplateSlots(tmpls[rng.Intn(len(tmpls))])
	args := make([]string, len(cells))
	for j, cell := range cells {
		args[j] = cell[rng.Intn(len(cell))].Name()
	}
	kinds := []wsd.UpdateKind{wsd.OpDelete, wsd.OpAssume, wsd.OpAssumeNot, wsd.OpInsert}
	op := &wsd.UpdateOp{Kind: kinds[rng.Intn(len(kinds))], Rel: name, Args: args}
	if op.Kind == wsd.OpInsert {
		args[len(args)-1] = "fresh"
	}
	return op
}

// checkDelta holds one step to the property: the successor's derived
// state equals a rebuild, the parent's still does and prints as before,
// and a shared index means nothing was installed.
func checkDelta(t *testing.T, tag string, parent, next *wsd.WSD, before string, builtBefore int) {
	t.Helper()
	if err := next.CheckDerivedState(); err != nil {
		t.Fatalf("%s: successor's carried state differs from a rebuild: %v\nparent:\n%s\nsuccessor:\n%s",
			tag, err, before, next)
	}
	if err := parent.CheckDerivedState(); err != nil {
		t.Fatalf("%s: parent's derived state changed: %v", tag, err)
	}
	if got := parent.String(); got != before {
		t.Fatalf("%s: the update mutated its parent\nwas:\n%s\nnow:\n%s", tag, before, got)
	}
	if wsd.SharesPostings(parent, next) && next.String() != before {
		t.Fatalf("%s: successor shares the parent's index but holds other components", tag)
	}
	if parent.BuiltColumns() != builtBefore {
		t.Fatalf("%s: parent's index went from %d to %d built columns", tag, builtBefore, parent.BuiltColumns())
	}
}

func TestDeltaEqualsRebuild(t *testing.T) {
	var steps, carried, shared, templated, emptied int
	for seed := int64(0); seed < 160; seed++ {
		arity := 2 + int(seed%2)
		cur, err := gen.RandomWSD(seed, 6, 3, arity, 6)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0xde17a))
		for step := 0; step < 8 && !cur.Empty(); step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			cur.BuildAllPostings()
			before, built := cur.String(), cur.BuiltColumns()
			u := randomUpdate(rng, arity, 6)
			if op := templateOp(rng, cur); op != nil && rng.Intn(2) == 0 {
				u.Ops = append(u.Ops[:rng.Intn(len(u.Ops)+1)], *op)
				templated++
			}
			next, err := cur.ApplyUpdate(u)
			if err != nil {
				break // entanglement guard: the chain ends here
			}
			checkDelta(t, tag+" "+u.String(), cur, next, before, built)
			switch {
			case next.Empty():
				emptied++
			case wsd.SharesPostings(cur, next):
				shared++
			default:
				// Far fewer holes than the compaction threshold: every
				// install carries the parent's full index.
				if got := next.BuiltColumns(); got != built {
					t.Fatalf("%s: successor holds %d built columns, parent had %d", tag, got, built)
				}
				carried++
			}
			steps++
			cur = next
		}
	}
	if steps < 450 || carried < 250 || shared < 50 || templated < 80 || emptied < 100 {
		t.Fatalf("weak coverage: %d steps, %d carried, %d shared, %d template ops, %d emptied",
			steps, carried, shared, templated, emptied)
	}
}

// TestNoOpUpdateSharesIndex pins the no-op case: operations that match
// nothing install nothing, and the successor reads the parent's index.
func TestNoOpUpdateSharesIndex(t *testing.T) {
	w := gen.GroupedWSD(40, 4)
	w.BuildAllPostings()
	next, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpDelete, Rel: "R", Args: []string{"never-seen", wsd.Wildcard, wsd.Wildcard}},
		{Kind: wsd.OpSet, Rel: "R", Args: []string{wsd.Wildcard, gen.GroupName(99), wsd.Wildcard},
			Set: []wsd.SlotAssign{{Slot: 2, Value: "on"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !wsd.SharesPostings(w, next) {
		t.Fatal("a no-op update must share the parent's posting index")
	}
	if err := next.CheckDerivedState(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaAcrossCompaction runs a delete chain long enough that the
// holes trigger compaction, which drops the index (a full
// renormalization renumbers facts); every other step carries it.
func TestDeltaAcrossCompaction(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	certain := make(wsd.Alt, 0, 200)
	for i := 0; i < 200; i++ {
		certain = append(certain, wsd.Fact{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%03d", i), "on"}})
	}
	if err := w.AddComponent(certain); err != nil {
		t.Fatal(err)
	}
	if err := w.AddComponent(
		wsd.Alt{{Rel: "R", Args: rel.Fact{"open", "a"}}, {Rel: "R", Args: rel.Fact{"open2", "a"}}},
		wsd.Alt{{Rel: "R", Args: rel.Fact{"open", "b"}}, {Rel: "R", Args: rel.Fact{"open2", "b"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTemplateComponent("R", []string{"t"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	cur, compactions := w, 0
	for i := 0; i < 150; i++ {
		cur.BuildAllPostings()
		before, built := cur.String(), cur.BuiltColumns()
		next, err := cur.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpDelete, Rel: "R", Args: []string{fmt.Sprintf("k%03d", i), wsd.Wildcard}},
		}})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		checkDelta(t, fmt.Sprintf("delete %d", i), cur, next, before, built)
		if next.BuiltColumns() == 0 {
			compactions++
		} else if next.BuiltColumns() != built {
			t.Fatalf("delete %d: successor holds %d built columns, parent had %d", i, next.BuiltColumns(), built)
		}
		cur = next
	}
	if compactions == 0 {
		t.Fatal("the delete chain never compacted")
	}
	// The σ read after a write finds the survivors through the carried
	// posting of the constant column.
	comps, tmpls := cur.Posting(0, 1, sym.Const("on"))
	if len(comps) != 1 || len(tmpls) != 0 {
		t.Fatalf("Posting(R, 1, on) = %v, %v; want the certain component alone", comps, tmpls)
	}
}
