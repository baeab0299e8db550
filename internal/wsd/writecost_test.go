// Write cost and long update chains under stable component IDs. A write
// costs what it touches: one single-component write on a decomposition
// ten times larger must not allocate more than twice the bytes. And a
// long chain of random writes — long enough that every derived delta is
// folded into a fresh base several times — must leave each successor
// equal to a from-scratch normalization and every earlier snapshot as
// it was.
package wsd_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// writeBytes measures the bytes one single-component write allocates on
// gen.GroupedWSD(comps, comps/10), together with its successor's first
// σ[#g = group] posting lookup: the write inserts or deletes one certain
// fact of group 7, alternately, after one warm-up cycle (so every fact
// is interned and the posting built), averaged over eight writes.
func writeBytes(t *testing.T, comps int) uint64 {
	w := gen.GroupedWSD(comps, comps/10)
	group := gen.GroupName(7)
	writes := []*wsd.Update{
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpInsert, Rel: "R", Args: []string{"w00001", group, "on"}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpDelete, Rel: "R", Args: []string{"w00001", wsd.Wildcard, wsd.Wildcard}}}},
	}
	g := sym.Const(group)
	w.Posting(0, 1, g)
	step := func(i int) {
		next, err := w.ApplyUpdate(writes[i%2])
		if err != nil {
			t.Fatal(err)
		}
		next.Posting(0, 1, g)
		w = next
	}
	step(0)
	step(1)
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

func TestWriteCostFlat(t *testing.T) {
	small, large := writeBytes(t, 2000), writeBytes(t, 20000)
	if large > 2*small {
		t.Fatalf("a write at 20000 components allocates %d bytes, more than twice the %d at 2000", large, small)
	}
}

// chainCase is one starting decomposition of the long-chain test and the
// writes to drive it with.
type chainCase struct {
	name   string
	w      *wsd.WSD
	consts []string
	ops    func(rng *rand.Rand) *wsd.Update
}

// relUpdate returns a random one- or two-operation update over the
// given relations, mostly edits, sometimes a filter. Half the first
// slots name a key k0…k29, the rest of the slots pool constants.
func relUpdate(rng *rand.Rand, rels []table.SchemaRel, consts int) *wsd.Update {
	u := &wsd.Update{}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		r := rels[rng.Intn(len(rels))]
		kind := []wsd.UpdateKind{wsd.OpInsert, wsd.OpInsert, wsd.OpDelete, wsd.OpDelete, wsd.OpSet, wsd.OpSet, wsd.OpAssume, wsd.OpAssumeNot}[rng.Intn(8)]
		args := make([]string, r.Arity)
		for j := range args {
			args[j] = fmt.Sprintf("c%d", rng.Intn(consts))
			if j == 0 && rng.Intn(2) == 0 {
				args[j] = fmt.Sprintf("k%d", rng.Intn(30))
			}
			if (kind == wsd.OpDelete || kind == wsd.OpSet) && rng.Intn(3) == 0 {
				args[j] = wsd.Wildcard
			}
		}
		op := wsd.UpdateOp{Kind: kind, Rel: r.Name, Args: args}
		if kind == wsd.OpSet {
			op.Set = []wsd.SlotAssign{{Slot: rng.Intn(r.Arity), Value: fmt.Sprintf("c%d", rng.Intn(consts))}}
		}
		u.Ops = append(u.Ops, op)
	}
	return u
}

// chainCases builds a tuple-level, an attribute-level and a
// multi-relation starting decomposition for one seed.
func chainCases(t *testing.T, seed int64) []chainCase {
	const consts = 10
	rng := rand.New(rand.NewSource(seed))
	pool := constPool(consts)
	c := func() string { return pool[rng.Intn(consts)] }
	schemaR := table.Schema{{Name: "R", Arity: 2}}
	tuple := wsd.New(schemaR)
	for i := 0; i < 30; i++ {
		var alts []wsd.Alt
		for a := 1 + rng.Intn(3); a > 0; a-- {
			alts = append(alts, wsd.Alt{{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%d", i), c()}}})
		}
		alts = append(alts, wsd.Alt{{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%d", i), c()}}, {Rel: "R", Args: rel.Fact{c(), fmt.Sprintf("k%d", i)}}})
		if err := tuple.AddComponent(alts...); err != nil {
			t.Fatal(err)
		}
	}
	attr := wsd.New(schemaR)
	for i := 0; i < 30; i++ {
		if err := attr.AddTemplateComponent("R", []string{fmt.Sprintf("k%d", i)}, []string{c(), c(), c()}); err != nil {
			t.Fatal(err)
		}
	}
	schemaRS := table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}}
	multi := wsd.New(schemaRS)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i)
		if i%5 == 0 {
			if err := multi.AddTemplateComponent("R", []string{k}, []string{c(), c()}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := multi.AddComponent(
			wsd.Alt{{Rel: "R", Args: rel.Fact{k, c()}}, {Rel: "S", Args: rel.Fact{k}}},
			wsd.Alt{{Rel: "S", Args: rel.Fact{c()}}},
		); err != nil {
			t.Fatal(err)
		}
	}
	var cases []chainCase
	for _, cc := range []chainCase{
		{name: "tuple", w: tuple, ops: func(rng *rand.Rand) *wsd.Update { return relUpdate(rng, schemaR, consts) }},
		{name: "attribute", w: attr, ops: func(rng *rand.Rand) *wsd.Update { return relUpdate(rng, schemaR, consts) }},
		{name: "multi-relation", w: multi, ops: func(rng *rand.Rand) *wsd.Update { return relUpdate(rng, schemaRS, consts) }},
	} {
		if err := cc.w.Normalize(); err != nil {
			continue // entangled past the merge guard: no chain from here
		}
		cc.consts = append(pool, "k0", "k1", "k7")
		cases = append(cases, cc)
	}
	return cases
}

// snapshot is one version of a chain as it read when it was the head.
type snapshot struct {
	w      *wsd.WSD
	text   string
	count  string
	probes []bool
}

// probe answers PossibleFact and CertainFact on a fixed fact set.
func probe(w *wsd.WSD) []bool {
	var out []bool
	for _, f := range []rel.Fact{{"k0", "c0"}, {"k1", "c1"}, {"k7", "c3"}, {"c2", "k2"}} {
		out = append(out, w.PossibleFact("R", f), w.CertainFact("R", f))
	}
	return out
}

func TestLongChainAcrossFolds(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, cc := range chainCases(t, seed) {
			rng := rand.New(rand.NewSource(seed*31 + int64(len(cc.name))))
			cur := cc.w
			cur.BuildAllPostings()
			chain := []snapshot{{cur, cur.String(), cur.Count().String(), probe(cur)}}
			writes, folds, prevDelta := 0, 0, 0
			for step := 0; writes < 300 && step < 3000; step++ {
				tag := fmt.Sprintf("%s seed %d step %d", cc.name, seed, step)
				u := cc.ops(rng)
				next, err := cur.ApplyUpdate(u)
				if err != nil {
					continue // entanglement guard: try another write
				}
				ref := reference(t, next)
				if got, want := next.String(), ref.String(); got != want {
					t.Fatalf("%s %s: successor prints\n%s\nfull normalization prints\n%s", tag, u, got, want)
				}
				if got, want := next.Count(), ref.Count(); got.Cmp(want) != 0 {
					t.Fatalf("%s %s: Count %s, full normalization %s", tag, u, got, want)
				}
				if err := next.CheckDerivedState(); err != nil {
					t.Fatalf("%s %s: %v", tag, u, err)
				}
				checkPostings(t, tag, next, cc.consts)
				if step%50 == 0 {
					checkSnapshots(t, tag, chain)
				}
				if next.Empty() {
					continue // the chain goes on from the last non-empty version
				}
				if d := wsd.DeltaEntries(next); d < prevDelta {
					folds++
					prevDelta = d
				} else {
					prevDelta = d
				}
				chain = append(chain, snapshot{next, next.String(), next.Count().String(), probe(next)})
				cur = next
				writes++
			}
			if writes < 300 || folds < 3 {
				t.Fatalf("%s seed %d: %d writes, %d folds", cc.name, seed, writes, folds)
			}
			checkSnapshots(t, fmt.Sprintf("%s seed %d", cc.name, seed), chain)
		}
	}
}

// checkSnapshots holds every version of a chain to how it read when it
// was the head: printed form, world count and fact probes.
func checkSnapshots(t *testing.T, tag string, chain []snapshot) {
	t.Helper()
	for i, s := range chain {
		if s.w.String() != s.text || s.w.Count().String() != s.count || fmt.Sprint(probe(s.w)) != fmt.Sprint(s.probes) {
			t.Fatalf("%s: snapshot %d reads otherwise than when it was the head", tag, i)
		}
	}
}
