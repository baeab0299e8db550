// Property tests for the posting index: every lookup equals a
// brute-force filter over all components, on generated tuple- and
// attribute-level decompositions, along random update chains — on each
// successor and on the untouched parent it was derived from, and on
// clones — plus the concurrent first build on one shared decomposition.
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

// bruteRelComponents filters every component for the tuple-level ones
// with a fact of relation name in some alternative.
func bruteRelComponents(w *wsd.WSD, name string) []int32 {
	var out []int32
	for ci := 0; ci < w.Components(); ci++ {
		if w.IsTemplate(ci) {
			continue
		}
	alts:
		for ai := 0; ai < w.AltCount(ci); ai++ {
			for _, f := range w.AltFacts(ci, ai) {
				if f.Rel == name {
					out = append(out, int32(ci))
					break alts
				}
			}
		}
	}
	return out
}

// brutePosting filters every component for those that can hold a fact
// of relation name whose column col is val.
func brutePosting(w *wsd.WSD, name string, col int, val string) (comps, tmpls []int32) {
	for ci := 0; ci < w.Components(); ci++ {
		if r, cells, ok := w.TemplateSlots(ci); ok {
			if r == name && slices.ContainsFunc(cells[col], func(id sym.ID) bool { return id.Name() == val }) {
				tmpls = append(tmpls, int32(ci))
			}
			continue
		}
	alts:
		for ai := 0; ai < w.AltCount(ci); ai++ {
			for _, f := range w.AltFacts(ci, ai) {
				if f.Rel == name && f.Args[col] == val {
					comps = append(comps, int32(ci))
					break alts
				}
			}
		}
	}
	return comps, tmpls
}

// checkPostings compares every posting lookup of w with the brute-force
// filters, for every relation, column and pool constant (plus one
// constant the decomposition never mentions), and checks the template
// probe (FactComponent) on every template instantiation.
func checkPostings(t *testing.T, tag string, w *wsd.WSD, consts []string) {
	t.Helper()
	var altFacts int64
	for ci := 0; ci < w.Components(); ci++ {
		if w.IsTemplate(ci) {
			continue
		}
		for ai := 0; ai < w.AltCount(ci); ai++ {
			altFacts += int64(len(w.AltFacts(ci, ai)))
		}
	}
	if got := w.AltFactCount(); got != altFacts {
		t.Errorf("%s: AltFactCount = %d, brute force %d", tag, got, altFacts)
	}
	for ri, r := range w.Schema() {
		if got, want := w.RelComponents(ri), bruteRelComponents(w, r.Name); !slices.Equal(got, want) {
			t.Errorf("%s: RelComponents(%s) = %v, brute force %v", tag, r.Name, got, want)
		}
		var wantTmpls []int32
		for ci := 0; ci < w.Components(); ci++ {
			if name, _, ok := w.TemplateSlots(ci); ok && name == r.Name {
				wantTmpls = append(wantTmpls, int32(ci))
			}
		}
		if got := w.RelTemplates(ri); !slices.Equal(got, wantTmpls) {
			t.Errorf("%s: RelTemplates(%s) = %v, brute force %v", tag, r.Name, got, wantTmpls)
		}
		for col := 0; col < r.Arity; col++ {
			for _, c := range append(consts, "never-mentioned") {
				id, ok := sym.LookupConst(c)
				if !ok {
					id = sym.None
				}
				gotC, gotT := w.Posting(ri, col, id)
				wantC, wantT := brutePosting(w, r.Name, col, c)
				if !slices.Equal(gotC, wantC) || !slices.Equal(gotT, wantT) {
					t.Errorf("%s: Posting(%s, %d, %s) = %v / %v, brute force %v / %v",
						tag, r.Name, col, c, gotC, gotT, wantC, wantT)
				}
			}
		}
		for ci := 0; ci < w.Components(); ci++ {
			if w.IsTemplate(ci) {
				continue
			}
			for ai := 0; ai < w.AltCount(ci); ai++ {
				var want []sym.Tuple
				for _, f := range w.AltFacts(ci, ai) {
					if f.Rel == r.Name {
						want = append(want, f.Args.Intern())
					}
				}
				// Appending keeps what dst already holds.
				prefix := []sym.Tuple{{sym.None}}
				want = append(prefix, want...)
				if got := w.AppendAltTuples(prefix[:1:1], ci, ai, ri); !slices.EqualFunc(got, want, sym.Tuple.Equal) {
					t.Errorf("%s: AppendAltTuples(dst, %d, %d, %s) = %v, want %v", tag, ci, ai, r.Name, got, want)
				}
			}
		}
	}
	// The template probe: every instantiation resolves to its template,
	// and a near miss outside every cell resolves nowhere.
	for ci := 0; ci < w.Components(); ci++ {
		name, _, ok := w.TemplateSlots(ci)
		if !ok || w.AltCount(ci) > 64 {
			continue
		}
		for ai := 0; ai < w.AltCount(ci); ai++ {
			f := w.AltFacts(ci, ai)[0]
			if got, ok := w.FactComponent(f.Rel, f.Args); !ok || got != ci {
				t.Errorf("%s: FactComponent(%s) = %d, %v; want template %d", tag, f, got, ok, ci)
			}
			miss := append(rel.Fact(nil), f.Args...)
			miss[len(miss)-1] = "never-mentioned"
			if w.PossibleFact(name, miss) {
				t.Errorf("%s: PossibleFact(%s %v) = true for a constant outside every cell", tag, name, miss)
			}
		}
	}
}

func constPool(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("c%d", i)
	}
	return out
}

// TestPostingsMatchBruteForce checks the index on generated mixed
// decompositions (tuple-level components and templates) of arity 2 and
// 3, and on the tracked tuple-level and attribute-level builders.
func TestPostingsMatchBruteForce(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 80; seed++ {
		arity := 2 + int(seed)%2
		w, err := gen.RandomWSD(seed, 6, 3, arity, 6)
		if err != nil {
			continue
		}
		checkPostings(t, fmt.Sprintf("seed %d", seed), w, constPool(6))
		cases++
	}
	if cases < 60 {
		t.Fatalf("only %d generated cases", cases)
	}
	checkPostings(t, "million", gen.MillionWorldWSD(), []string{"hub", "ok", "s03", "s03b", "hi", "lo"})
	checkPostings(t, "century", gen.CenturyWSD(), []string{"hub", "ok", "s042", "hi", "lo"})
}

// TestPostingsAcrossUpdates walks random update chains. Before each
// step the parent's index is built; after it, the successor (which
// carries the parent's index, remapped, or shares it when the update
// installed nothing), a clone of it, and the parent (whose index the
// carry must not disturb) must all match brute force.
func TestPostingsAcrossUpdates(t *testing.T) {
	pool := constPool(5)
	for seed := int64(0); seed < 40; seed++ {
		cur, err := gen.RandomWSD(seed, 5, 3, 2, 5)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0x90570))
		for step := 0; step < 6; step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			checkPostings(t, tag+" parent", cur, pool)
			before := cur.String()
			next, err := cur.ApplyUpdate(randomUpdate(rng, 2, 5))
			if err != nil {
				break // entanglement guard: the chain ends here
			}
			checkPostings(t, tag+" successor", next, pool)
			checkPostings(t, tag+" clone", next.Clone(), pool)
			checkPostings(t, tag+" parent after", cur, pool)
			if cur.String() != before {
				t.Fatalf("%s: the update mutated its parent", tag)
			}
			cur = next
		}
	}
}

// TestPostingsMultiRelation covers relations sharing components: one
// component mentions both relations, another only one, and a template
// sits beside them.
func TestPostingsMultiRelation(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}})
	add := func(alts ...wsd.Alt) {
		t.Helper()
		if err := w.AddComponent(alts...); err != nil {
			t.Fatal(err)
		}
	}
	add(wsd.Alt{{Rel: "R", Args: rel.Fact{"a", "x"}}, {Rel: "S", Args: rel.Fact{"a"}}},
		wsd.Alt{{Rel: "S", Args: rel.Fact{"b"}}})
	add(wsd.Alt{{Rel: "S", Args: rel.Fact{"c"}}}, wsd.Alt{{Rel: "S", Args: rel.Fact{"d"}}})
	add(wsd.Alt{{Rel: "R", Args: rel.Fact{"e", "x"}}}, wsd.Alt{})
	if err := w.AddTemplateComponent("R", []string{"f"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	checkPostings(t, "multi", w, []string{"a", "b", "c", "d", "e", "f", "x", "y"})
}

// TestPostingsConcurrentFirstBuild races 8 goroutines to the first
// build of one shared decomposition's index; each must read a complete
// index (the race detector checks the publication).
func TestPostingsConcurrentFirstBuild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		w, err := gen.RandomWSD(seed, 6, 3, 2, 6)
		if err != nil {
			continue
		}
		want := make([][]int32, 6)
		ref := w.Clone()
		for c := range want {
			id, ok := sym.LookupConst(fmt.Sprintf("c%d", c))
			if !ok {
				id = sym.None
			}
			want[c], _ = ref.Posting(0, 0, id)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := g % len(want)
				id, ok := sym.LookupConst(fmt.Sprintf("c%d", c))
				if !ok {
					id = sym.None
				}
				if got, _ := w.Posting(0, 0, id); !slices.Equal(got, want[c]) {
					t.Errorf("seed %d goroutine %d: Posting = %v, want %v", seed, g, got, want[c])
				}
				w.PossibleFact("R", rel.Fact{fmt.Sprintf("c%d", c), "c0"})
			}(g)
		}
		wg.Wait()
	}
}
