package wsd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pw/internal/rel"
	"pw/internal/table"
)

func schemaR() table.Schema { return table.Schema{{Name: "R", Arity: 2}} }

func alt(facts ...[2]string) Alt {
	a := make(Alt, 0, len(facts))
	for _, f := range facts {
		a = append(a, Fact{Rel: "R", Args: rel.Fact{f[0], f[1]}})
	}
	return a
}

func mustAdd(t *testing.T, w *WSD, alts ...Alt) {
	t.Helper()
	if err := w.AddComponent(alts...); err != nil {
		t.Fatal(err)
	}
}

func inst(facts ...[2]string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("R", 2)
	for _, f := range facts {
		r.AddRow(f[0], f[1])
	}
	return i
}

func TestCountIsProductOfComponents(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"s1", "lo"}), alt([2]string{"s1", "hi"}))
	mustAdd(t, w, alt([2]string{"s2", "lo"}), alt([2]string{"s2", "hi"}), alt([2]string{"s2", "mid"}))
	mustAdd(t, w, alt([2]string{"hub", "ok"})) // certain
	if got := w.Count().Int64(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := w.Components(); got != 3 {
		t.Fatalf("Components = %d, want 3", got)
	}
	// Canonical component order is by smallest support fact: the certain
	// hub fragment, then s1, then s2.
	if got := w.Alternatives(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Alternatives = %v, want [1 2 3]", got)
	}
	if got := w.Size(); got != 6 {
		t.Fatalf("Size = %d facts, want 6", got)
	}
	if n := len(w.Expand(0)); n != 6 {
		t.Fatalf("Expand yielded %d worlds, want 6", n)
	}
}

func TestMemberPossCert(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"s1", "lo"}), alt([2]string{"s1", "hi"}))
	mustAdd(t, w, alt([2]string{"s2", "lo"}), alt([2]string{"s2", "hi"}))
	mustAdd(t, w, alt([2]string{"hub", "ok"}))

	if !w.Member(inst([2]string{"s1", "lo"}, [2]string{"s2", "hi"}, [2]string{"hub", "ok"})) {
		t.Error("valid world rejected")
	}
	if w.Member(inst([2]string{"s1", "lo"}, [2]string{"s2", "hi"})) {
		t.Error("world missing the certain fact accepted")
	}
	if w.Member(inst([2]string{"s1", "lo"}, [2]string{"s1", "hi"}, [2]string{"s2", "lo"}, [2]string{"hub", "ok"})) {
		t.Error("world taking two alternatives of one component accepted")
	}
	if w.Member(inst([2]string{"s1", "lo"}, [2]string{"s2", "hi"}, [2]string{"hub", "ok"}, [2]string{"zz", "zz"})) {
		t.Error("world with a fact outside the support accepted")
	}

	if !w.PossibleFact("R", rel.Fact{"s1", "lo"}) {
		t.Error("supported fact not possible")
	}
	if w.PossibleFact("R", rel.Fact{"zz", "zz"}) {
		t.Error("unsupported fact possible")
	}
	if !w.CertainFact("R", rel.Fact{"hub", "ok"}) {
		t.Error("certain fact not certain")
	}
	if w.CertainFact("R", rel.Fact{"s1", "lo"}) {
		t.Error("alternative-dependent fact certain")
	}

	// Co-occurrence matters for multi-fact possibility: s1→lo and s1→hi
	// are each possible but never together.
	if !w.Possible(inst([2]string{"s1", "lo"}, [2]string{"s2", "hi"})) {
		t.Error("cross-component fact pair not possible")
	}
	if w.Possible(inst([2]string{"s1", "lo"}, [2]string{"s1", "hi"})) {
		t.Error("mutually exclusive alternatives jointly possible")
	}
	if !w.Certain(inst([2]string{"hub", "ok"})) {
		t.Error("certain instance not certain")
	}
	if w.Certain(inst([2]string{"s1", "lo"})) {
		t.Error("uncertain instance certain")
	}
}

func TestNormalizeMergesOverlappingComponents(t *testing.T) {
	// Two "independent" components that can produce the same fact are
	// dependent; the merge must dedup the union worlds so Count is exact.
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"a", "1"}), alt([2]string{"b", "1"}))
	mustAdd(t, w, alt([2]string{"a", "1"}), alt([2]string{"c", "1"}))
	// Unions: {a}, {a,c}, {a,b}, {b,c} — 4 distinct worlds.
	if got := w.Count().Int64(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := len(w.Expand(0)); got != 4 {
		t.Fatalf("Expand = %d worlds, want 4", got)
	}
}

// repeated lists alts n times over, as a query answer lists one
// alternative per joint origin choice.
func repeated(n int, alts ...Alt) []Alt {
	var out []Alt
	for range n {
		out = append(out, alts...)
	}
	return out
}

func TestMergeMultipliesDistinctAlternatives(t *testing.T) {
	// Each component lists its two alternatives 1100 times. Normalize
	// deduplicates before the merge, so the product is 2×2; over the
	// raw lists it would be 2200×2200 and trip the MaxMergeAlts guard.
	a1, b1, c1 := alt([2]string{"a", "1"}), alt([2]string{"b", "1"}), alt([2]string{"c", "1"})
	w := New(schemaR())
	mustAdd(t, w, repeated(1100, a1, b1)...)
	mustAdd(t, w, repeated(1100, a1, c1)...)
	if err := w.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	want := New(schemaR())
	mustAdd(t, want, a1, b1)
	mustAdd(t, want, a1, c1)
	if err := want.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got, exp := w.String(), want.String(); got != exp {
		t.Fatalf("repeated alternatives normalize to\n%s\nwant\n%s", got, exp)
	}
}

func TestUpdateMergesDistinctAlternatives(t *testing.T) {
	// A template R(k, 0..1099) and a 1100-alternative component holding
	// R(k, x). Setting R(k, *) to x rewrites every instantiation onto
	// R(k, x): a group of 1100 copies of one alternative, which collides
	// with the other component. Deduplicated, the merge is 1×1100; over
	// the raw group it would be 1100×1100 and trip the MaxMergeAlts guard.
	w := New(schemaR())
	var tmpl, other []Alt
	for i := range 1100 {
		tmpl = append(tmpl, alt([2]string{"k", fmt.Sprint(i)}))
		if i < 1099 {
			other = append(other, alt([2]string{"m", fmt.Sprint(i)}))
		}
	}
	other = append(other, alt([2]string{"k", "x"}))
	mustAdd(t, w, tmpl...)
	mustAdd(t, w, other...)
	u := &Update{Ops: []UpdateOp{{Kind: OpSet, Rel: "R", Args: []string{"k", Wildcard},
		Set: []SlotAssign{{Slot: 1, Value: "x"}}}}}
	inc, err := w.ApplyUpdate(u)
	if err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	full, err := w.ApplyUpdateFull(u)
	if err != nil {
		t.Fatalf("ApplyUpdateFull: %v", err)
	}
	if got, want := inc.String(), full.String(); got != want {
		t.Fatalf("incremental\n%s\nfrom scratch\n%s", got, want)
	}
	if got := inc.Count().Int64(); got != 1100 {
		t.Fatalf("Count = %d, want 1100", got)
	}
	if !inc.CertainFact("R", rel.Fact{"k", "x"}) {
		t.Fatal("R(k, x) is not certain after the update")
	}
}

func TestNormalizeSplitsIndependentComponent(t *testing.T) {
	// One hand-written component that is secretly an a×b product: 2×2,
	// and 10×13 — 130 alternatives, three trace words — with each
	// side's choice naming two facts (a block of two).
	for _, c := range []struct{ a, b, facts int }{{2, 2, 1}, {10, 13, 2}} {
		w := New(schemaR())
		var alts []Alt
		for i := range c.a {
			for j := range c.b {
				var facts [][2]string
				for _, n := range []string{"x", "x'"}[:c.facts] {
					facts = append(facts, [2]string{n, fmt.Sprint(i)})
				}
				for _, n := range []string{"y", "y'"}[:c.facts] {
					facts = append(facts, [2]string{n, fmt.Sprint(j)})
				}
				alts = append(alts, alt(facts...))
			}
		}
		mustAdd(t, w, alts...)
		if got := w.Components(); got != 2 {
			t.Fatalf("%d×%d: split produced %d components, want 2", c.a, c.b, got)
		}
		if got := w.Count().Int64(); got != int64(c.a*c.b) {
			t.Fatalf("%d×%d: Count = %d, want %d", c.a, c.b, got, c.a*c.b)
		}
	}
}

func TestNormalizeKeepsXORAtomic(t *testing.T) {
	// Pairwise independent but jointly dependent (parity): must NOT split.
	w := New(schemaR())
	mustAdd(t, w,
		alt(),
		alt([2]string{"x", "1"}, [2]string{"y", "1"}),
		alt([2]string{"x", "1"}, [2]string{"z", "1"}),
		alt([2]string{"y", "1"}, [2]string{"z", "1"}),
	)
	if got := w.Components(); got != 1 {
		t.Fatalf("XOR pattern split into %d components, want 1 (atomic)", got)
	}
	if got := w.Count().Int64(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
}

func TestEmptyWorldSet(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w) // zero alternatives: no choice possible
	if !w.Empty() {
		t.Fatal("component with no alternatives must denote the empty world set")
	}
	if got := w.Count().Int64(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if w.Member(inst()) {
		t.Error("empty world set has a member")
	}
	if w.Possible(inst()) {
		t.Error("POSS(∅) true on the empty world set")
	}
	if !w.Certain(inst([2]string{"a", "b"})) {
		t.Error("CERT vacuously true on the empty world set")
	}
	if w.Sample(rand.New(rand.NewSource(1))) != nil {
		t.Error("Sample on the empty world set")
	}
}

func TestZeroComponentsDenoteOneEmptyWorld(t *testing.T) {
	w := New(schemaR())
	if got := w.Count().Int64(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	ws := w.Expand(0)
	if len(ws) != 1 || ws[0].Size() != 0 {
		t.Fatalf("Expand = %v, want one empty world", ws)
	}
	if !w.Member(inst()) {
		t.Error("empty world not a member")
	}
}

func TestSampleIsAWorld(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"s1", "lo"}), alt([2]string{"s1", "hi"}))
	mustAdd(t, w, alt([2]string{"s2", "lo"}), alt([2]string{"s2", "hi"}))
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20; k++ {
		s := w.Sample(rng)
		if !w.Member(s) {
			t.Fatalf("sampled instance is not a member:\n%s", s)
		}
	}
}

func TestStringRoundTripStable(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"b", "1"}), alt([2]string{"a", "1"}))
	mustAdd(t, w, alt([2]string{"c", "1"}))
	w.ensure()
	s1 := w.String()
	if !strings.HasPrefix(s1, "@wsd") {
		t.Fatalf("String does not start with @wsd: %q", s1)
	}
	// Normalization is idempotent: re-normalizing must not change the
	// printed form.
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s2 := w.String(); s2 != s1 {
		t.Fatalf("String drifted across Normalize:\nfirst:  %q\nsecond: %q", s1, s2)
	}
}

func TestAddComponentValidation(t *testing.T) {
	w := New(schemaR())
	if err := w.AddComponent(Alt{{Rel: "S", Args: rel.Fact{"a"}}}); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := w.AddComponent(Alt{{Rel: "R", Args: rel.Fact{"a"}}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"a", "1"}), alt([2]string{"b", "1"}))
	w.ensure()
	c := w.Clone()
	mustAdd(t, w, alt([2]string{"c", "1"}), alt([2]string{"d", "1"}))
	if got := c.Count().Int64(); got != 2 {
		t.Fatalf("clone count changed after original mutated: %d", got)
	}
	if got := w.Count().Int64(); got != 4 {
		t.Fatalf("original count = %d, want 4", got)
	}
}

// TestAttrOwnerProbesSelectiveColumn: the template probe reads the
// column with the shortest postings on average — here the unique id
// column, not the two-valued kind column that comes first.
func TestAttrOwnerProbesSelectiveColumn(t *testing.T) {
	w := New(table.Schema{{Name: "R", Arity: 2}})
	for i := 0; i < 50; i++ {
		kind := []string{"a", "b"}[i%2]
		if err := w.AddTemplateComponent("R", []string{kind}, []string{fmt.Sprintf("x%02d", i), fmt.Sprintf("y%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := w.postingIndex().rels[0].ownerCol; got != 1 {
		t.Fatalf("owner column = %d, want the id column 1", got)
	}
	if !w.PossibleFact("R", rel.Fact{"b", "y07"}) || w.PossibleFact("R", rel.Fact{"a", "y07"}) {
		t.Fatal("template probe through the owner column answers wrongly")
	}
}

// TestOrderDroppedByIncrementalInstall builds the display order on an
// update snapshot mid-update, then applies an operation: the install
// must drop the order, so the next positional read sees the successor's
// components, not the stale permutation. The choice-axis count is
// carried by delta and must equal a recount.
func TestOrderDroppedByIncrementalInstall(t *testing.T) {
	w := New(schemaR())
	mustAdd(t, w, alt([2]string{"a", "x"}), alt([2]string{"a", "y"}))
	mustAdd(t, w, alt([2]string{"b", "x"}), alt([2]string{"b", "y"}), alt([2]string{"b", "z"}))
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	out := w.snapshotClone()
	before := out.Order()
	if err := out.applyOp(&UpdateOp{Kind: OpInsert, Rel: "R", Args: []string{"c", "w"}}); err != nil {
		t.Fatal(err)
	}
	after := out.Order()
	if len(after) != len(before)+1 {
		t.Fatalf("install kept the order: %v before, %v after", before, after)
	}
	if got := len(out.World(make([]int, len(after))).Relations()[0].Tuples()); got != 3 {
		t.Fatalf("first world of the successor holds %d facts, want 3", got)
	}
	if out.UnitCount() != 3 || w.UnitCount() != 2 {
		t.Fatalf("unit counts %d (successor), %d (parent); want 3, 2", out.UnitCount(), w.UnitCount())
	}
	if err := out.CheckDerivedState(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedCopyOnWrite pins the chunked array's contract: a fork
// shares its parent's chunks, writes into the fork copy only the chunks
// they touch, and the parent reads as before; a fork of the empty array
// grows in full-size chunks.
func TestChunkedCopyOnWrite(t *testing.T) {
	var empty chunked[int32]
	grown := empty.fork()
	for i := 0; i < 5000; i++ {
		grown.push(int32(i))
	}
	if want := (5000 + grown.size() - 1) / grown.size(); len(grown.chunks) != want || grown.size() < 128 {
		t.Fatalf("a fork of the empty array holds %d chunks of %d, want %d of at least 128", len(grown.chunks), grown.size(), want)
	}
	parent := chunkedOf(grown.slice())
	child := parent.fork()
	child.set(3, -3)
	child.push(5000)
	for i := 0; i < parent.len(); i++ {
		if parent.at(i) != int32(i) {
			t.Fatalf("parent element %d reads %d after the fork's writes", i, parent.at(i))
		}
	}
	if child.at(3) != -3 || child.at(5000) != 5000 || child.len() != 5001 || parent.len() != 5000 {
		t.Fatalf("fork reads %d, %d (len %d); parent len %d", child.at(3), child.at(5000), child.len(), parent.len())
	}
	shared := 0
	for k := range parent.chunks {
		if parent.chunks[k] == child.chunks[k] {
			shared++
		}
	}
	if shared != len(parent.chunks)-2 {
		t.Fatalf("fork shares %d of %d chunks, want all but the two it wrote", shared, len(parent.chunks))
	}
}

// TestTraceBlocksConfirmsHashes: facts whose traces share a hash but
// differ stay in separate blocks, and equal traces share one.
func TestTraceBlocksConfirmsHashes(t *testing.T) {
	const mix = 0x9e3779b97f4a7c15
	a := []uint64{0x0123456789abcdef, 0x0f0f0f0f0f0f0f0f}
	b := []uint64{a[0] + 1, a[1] ^ a[0]*mix ^ (a[0]+1)*mix}
	if hashTrace(a) != hashTrace(b) || slices.Equal(a, b) {
		t.Fatal("the two traces must be distinct with one hash")
	}
	traces := slices.Concat(a, b, a, b, []uint64{1, 2})
	factBlock, rep := traceBlocks(traces, 2)
	if !slices.Equal(factBlock, []int32{0, 1, 0, 1, 2}) || !slices.Equal(rep, []int32{0, 1, 4}) {
		t.Fatalf("blocks %v, first facts %v; want [0 1 0 1 2], [0 1 4]", factBlock, rep)
	}
}
