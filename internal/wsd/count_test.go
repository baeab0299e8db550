// The world count is carried across an update by delta — the parent's
// count times the added components' alternative counts over the
// dropped ones' — instead of recomputed over every component. The
// carried count must equal a from-scratch product on a clone (Clone
// holds no memo) after every step, and a count the step left unchanged
// keeps its memoized decimal text.
package wsd_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// checkCarriedCount asserts next carries its count from the update and
// that the count is the product a fresh clone computes.
func checkCarriedCount(t *testing.T, tag string, next *wsd.WSD) {
	t.Helper()
	if next.Empty() {
		if n := next.Count(); n.Sign() != 0 {
			t.Fatalf("%s: empty world set counts %s", tag, n)
		}
		return
	}
	carried := wsd.MemoCount(next)
	if carried == nil {
		t.Fatalf("%s: the update carried no world count", tag)
	}
	if fresh := next.Clone().Count(); carried.Cmp(fresh) != 0 {
		t.Fatalf("%s: carried count %s, recomputed %s", tag, carried, fresh)
	}
}

// checkCountText asserts next's CountString is its count in decimal,
// and that an update keeping the count kept the text prev memoized
// before it (the same string, not a fresh formatting).
func checkCountText(t *testing.T, tag string, prev, next *wsd.WSD) {
	t.Helper()
	s := next.CountString()
	if want := next.Count().String(); s != want {
		t.Fatalf("%s: CountString %q, Count %s", tag, s, want)
	}
	if next.Count().Cmp(prev.Count()) == 0 && unsafe.StringData(s) != unsafe.StringData(prev.CountString()) {
		t.Fatalf("%s: the count %s is unchanged but its text was formatted afresh", tag, s)
	}
}

// TestCountCarriedByDelta runs random update chains — every op kind,
// template-aimed ops, assumes down to the empty world set — and checks
// the carried count after each step.
func TestCountCarriedByDelta(t *testing.T) {
	var steps, emptied, templated int
	for seed := int64(0); seed < 160; seed++ {
		arity := 2 + int(seed%2)
		cur, err := gen.RandomWSD(seed, 6, 3, arity, 6)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0xc0de))
		for step := 0; step < 8 && !cur.Empty(); step++ {
			u := randomUpdate(rng, arity, 6)
			if op := templateOp(rng, cur); op != nil && rng.Intn(2) == 0 {
				u.Ops = append(u.Ops, *op)
				templated++
			}
			cur.CountString()
			next, err := cur.ApplyUpdate(u)
			if err != nil {
				break // entanglement guard: the chain ends here
			}
			tag := fmt.Sprintf("seed %d step %d %s", seed, step, u)
			checkCarriedCount(t, tag, next)
			checkCountText(t, tag, cur, next)
			if next.Empty() {
				emptied++
			}
			steps++
			cur = next
		}
	}
	if steps < 400 || emptied < 50 || templated < 50 {
		t.Fatalf("weak coverage: %d steps, %d emptied, %d template ops", steps, emptied, templated)
	}

	// Past uint64: 2^100 worlds take the big-int path. Pinning one
	// sensor halves the count; deleting the hub keeps it, and with it
	// the 30-digit text.
	cur := gen.CenturyWSD()
	for _, u := range []*wsd.Update{
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpAssume, Rel: "R", Args: []string{"s007", "hi"}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpDelete, Rel: "R", Args: []string{"hub", wsd.Wildcard}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpInsert, Rel: "R", Args: []string{"s007", "lo"}}}},
	} {
		cur.CountString()
		next, err := cur.ApplyUpdate(u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		checkCarriedCount(t, "century "+u.String(), next)
		checkCountText(t, "century "+u.String(), cur, next)
		cur = next
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 99); cur.Count().Cmp(want) != 0 {
		t.Fatalf("century chain counts %s, want 2^99", cur.Count())
	}
}

// TestCountCarriedAcrossCompaction deletes from a large certain
// component until the holes trigger compaction; the count rides
// through every step, compaction included, and an assume of an
// impossible fact empties the world set.
func TestCountCarriedAcrossCompaction(t *testing.T) {
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
		wsd.Alt{{Rel: "R", Args: rel.Fact{"open", "c"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTemplateComponent("R", []string{"t"}, []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	cur, compactions := w, 0
	for i := 0; i < 150; i++ {
		cur.BuildAllPostings()
		cur.CountString()
		next, err := cur.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpDelete, Rel: "R", Args: []string{fmt.Sprintf("k%03d", i), wsd.Wildcard}},
		}})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if next.BuiltColumns() == 0 {
			compactions++
		}
		checkCarriedCount(t, fmt.Sprintf("delete %d", i), next)
		checkCountText(t, fmt.Sprintf("delete %d", i), cur, next)
		cur = next
	}
	if compactions == 0 {
		t.Fatal("the delete chain never compacted")
	}
	// Narrow the open components, then assume the impossible.
	for _, u := range []*wsd.Update{
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpAssumeNot, Rel: "R", Args: []string{"open", "c"}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpAssume, Rel: "R", Args: []string{"t", "y"}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpAssume, Rel: "R", Args: []string{"open", "a"}}, {Kind: wsd.OpAssume, Rel: "R", Args: []string{"open", "b"}}}},
	} {
		next, err := cur.ApplyUpdate(u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		checkCarriedCount(t, u.String(), next)
		cur = next
	}
	if !cur.Empty() {
		t.Fatalf("assuming both open(a) and open(b) left %s worlds, want the empty set", cur.Count())
	}
}
