// Package wsd implements world-set decompositions: a second backend for
// representing sets of possible worlds, complementing the conditioned
// tables of internal/table. Where a c-table denotes rep(T) through a
// valuation search, a WSD stores the world set directly in factored form —
// a product of independent components, each a small list of alternative
// relation-fragments — so that a database denoting 10^6 (or 10^(10^6))
// worlds occupies kilobytes and the core decision problems stay
// polynomial in the size of the decomposition.
//
// The design follows the world-set-decomposition line of work (Antova,
// Koch & Olteanu, "10^(10^6) Worlds and Beyond"; Olteanu, Koch & Antova,
// "World-set decompositions: expressiveness and efficient algorithms"),
// transposed to this repository's fact model: a world is a complete
// relational instance (rel.Instance) and a decomposition is
//
//	rep(W) = { C₁ ∪ C₂ ∪ … ∪ Cₘ : Cᵢ ∈ componentᵢ }
//
// where each component is a non-empty set of alternative fact-sets
// ("fragments"). Components come in two granularities: tuple-level
// components list whole-fact alternatives explicitly, and
// attribute-level components (attr.go) store one fact template with
// per-slot alternative lists whose cross product is the alternative set
// — exponentially more succinct when fields vary independently. After
// Normalize the components have pairwise disjoint fact supports and
// pairwise distinct alternatives, which makes the choice-vector → world
// map injective: |rep(W)| is exactly the product of the component
// sizes, membership decomposes into one per-component lookup, and a
// fact is possible (certain) iff some (every) alternative of its
// component contains it.
//
// Facts are interned once into a dense local fact table over sym.Tuple
// storage; components reference facts by dense int32 IDs, so alternatives
// are sorted integer lists compared by fingerprint with exact-equality
// collision buckets (the same idiom as internal/rel).
package wsd

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"pw/internal/obs"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// Fact is one ground fact at the API boundary: a relation name plus a
// tuple of constant names.
type Fact struct {
	Rel  string
	Args rel.Fact
}

// String renders the fact in .pw @wsd syntax: Rel(a b c).
func (f Fact) String() string { return f.Rel + "(" + strings.Join(f.Args, " ") + ")" }

// Alt is one alternative of a component: a set of facts chosen together.
// The empty alternative (no facts) is legal and means "this component
// contributes nothing in this world".
type Alt []Fact

// factState is a stored fact's derived state: the component owning it
// (-1 outside the support) and whether it is in every alternative.
type factState struct {
	comp    int32
	certain bool
}

// storedFact is the interned form: a schema-relation index plus an
// interned constant tuple.
type storedFact struct {
	rel   int32
	tuple sym.Tuple
}

// component is one factor of the product. It has two storage forms:
//
//   - tuple-level (attr == nil): a list of alternative fact-ID sets.
//     After Normalize the alternatives are sorted, pairwise distinct,
//     and indexed by fingerprint.
//   - attribute-level (attr != nil): one fact template with per-slot
//     alternative lists (see attr.go); the tuple-level alternatives are
//     the cross product of the slot choices, materialized lazily.
type component struct {
	alts     [][]int32
	altIndex map[uint64][]int32 // fingerprint of sorted IDs -> alt positions
	attr     *attrComp          // non-nil: attribute-level form; alts/altIndex unused
}

// dead reports whether the component is a tombstone: an ID an update
// dropped. A live tuple-level component always has alternatives.
func (c *component) dead() bool { return c.alts == nil && c.attr == nil }

// WSD is a world-set decomposition. The zero value is not usable; build
// with New (or FromWorlds / ToWSD / the .pw parser).
//
// Mutating methods (AddComponent) leave the decomposition denormalized;
// the query methods re-normalize lazily on first use, so single-threaded
// callers never need to call Normalize explicitly. Call Normalize once
// before sharing a WSD between goroutines: after it returns, all query
// methods are read-only and safe for concurrent use.
//
// Component IDs. A normalized decomposition stores its components by
// ID, in [0, Components()). Normalize numbers them densely in display
// order; an incremental update (update.go) never renumbers: survivors
// keep their IDs, dropped IDs stay behind as tombstones (a tombstone
// reads as a component with no alternatives and is in no list, posting
// or world), and added components take fresh IDs above every existing
// one. The display order — the order String prints and the positional
// accessors (World, Each, Sample, Alternatives, Order) walk — is a
// per-version permutation of the live IDs, built on first use.
type WSD struct {
	schema    table.Schema
	schemaIdx map[string]int
	facts     chunked[storedFact]
	// factIndex indexes the facts interned when it was last built;
	// factDelta the ones interned since. The delta is folded into a
	// fresh base once it outgrows 1/foldDiv of it (see store.go).
	factIndex factSet
	factDelta factSet

	// pending holds the components while the decomposition is being
	// built (denormalized); Normalize turns it into comps.
	pending []component
	// comps is the normalized component store, indexed by component ID;
	// live counts its non-tombstone entries.
	comps chunked[component]
	live  int

	// empty marks the decomposition that denotes the empty world set ∅
	// (distinct from the zero-component WSD, which denotes exactly one
	// world: every relation empty).
	empty bool

	normalized  bool
	factState   chunked[factState] // fact ID -> owning component and certainty (derived)
	certainComp int32              // the single-alternative component's ID, -1 when none (derived)
	// attrByRel holds per schema position the attribute-level component
	// IDs (derived); nil when there is no template at all.
	attrByRel []idList
	// free lists the tombstoned IDs, ascending (derived; shared, never
	// written): an install reuses them before it grows the store.
	free []int32
	// units counts the choice axes — tuple-level components plus open
	// template slots — and altFacts the facts over every alternative of
	// every tuple-level component (a fact in k alternatives counts k
	// times). Both are carried across an incremental update by delta.
	units    int64
	altFacts int64
	// dense marks a store whose IDs are exactly the display positions
	// (no tombstones, canonical order): what Normalize leaves.
	dense bool
	// order is the display order of the live IDs, built on first use by
	// a positional reader and published with a compare-and-swap.
	order atomic.Pointer[[]int32]
	// post is the lazily built posting index of this normalized version
	// (postings.go); nil until first use and after a from-scratch
	// derivation, carried across an incremental update.
	post atomic.Pointer[postings]
	// count memoizes Count for this normalized version: computed on
	// first use, carried across an incremental update by delta
	// (installIncremental), dropped with the other derived state. The
	// stored value is never mutated.
	count atomic.Pointer[big.Int]
	// countText memoizes CountString: the decimal text of one memoized
	// count. It is valid only while count still holds that very value, so
	// a new version invalidates it by itself, and it is carried wherever
	// count is.
	countText atomic.Pointer[countText]

	// Incremental-update state (see update.go). indexShared marks the
	// fact index base as shared with a snapshot parent (interns then go
	// to the delta), factsShared the delta (copied on the first intern);
	// compsShared marks pending components' alternative
	// slices as shared (deep-copied before any full normalization, which
	// mutates them in place); holes counts fact-table entries outside
	// every component's support; factsLoose records that fact IDs are
	// no longer in display order, so accessors that promise display
	// order must sort.
	factsShared bool
	indexShared bool
	compsShared bool
	holes       int
	factsLoose  bool

	// obsCost, when non-nil, receives structural cost counters from the
	// mutating paths (Normalize's merges/splits/folds, the update
	// engine's touched/survivor classification and COW unshares). It is
	// per-operation state: neither Clone nor snapshotClone copies it.
	obsCost *obs.Cost
}

// SetObsCost attaches a cost-accounting sink to the decomposition's
// mutating paths. Pass nil to detach. The sink is owned by one
// operation (a request, a load): Normalize and the update planner are
// single-writer by contract, so no synchronization is added here.
func (w *WSD) SetObsCost(c *obs.Cost) { w.obsCost = c }

// New returns an empty decomposition over the given schema: zero
// components, denoting the single world in which every relation is empty.
func New(schema table.Schema) *WSD {
	w := &WSD{
		schema:      append(table.Schema(nil), schema...),
		schemaIdx:   make(map[string]int, len(schema)),
		normalized:  true,
		dense:       true,
		certainComp: -1,
	}
	for i, r := range w.schema {
		if _, dup := w.schemaIdx[r.Name]; dup {
			panic("wsd: duplicate relation " + r.Name + " in schema")
		}
		w.schemaIdx[r.Name] = i
	}
	return w
}

// Schema returns the decomposition's schema in declaration order. The
// slice is owned by the WSD; callers must not mutate it.
func (w *WSD) Schema() table.Schema { return w.schema }

// Components returns the bound of the component ID space: IDs range
// over [0, Components()). On a freshly normalized decomposition every ID
// is live and the IDs are the display positions, so this is the
// component count (0 for the empty world set and for the
// single-empty-world decomposition; Empty distinguishes them); after
// incremental updates it also counts tombstones (see WSD).
func (w *WSD) Components() int { w.ensure(); return w.comps.len() }

// LiveComponents returns the number of components.
func (w *WSD) LiveComponents() int { w.ensure(); return w.live }

// Alternatives returns the alternative counts of the components in
// display order. For an attribute-level component the count is the
// product of its slot domain sizes, saturating at the int maximum
// (Count is exact; use it for astronomically factored templates).
func (w *WSD) Alternatives() []int {
	w.ensure()
	order := w.displayOrder()
	out := make([]int, len(order))
	for i, ci := range order {
		out[i] = w.comps.ref(int(ci)).altCount()
	}
	return out
}

// Order returns the live component IDs in display order: position p of
// the printed form, of World's choice vector and of Alternatives is
// component Order()[p]. The slice is shared; callers must not mutate it.
func (w *WSD) Order() []int32 { w.ensure(); return w.displayOrder() }

// displayOrder returns the live IDs in display order, building the
// permutation on first use: the identity on a dense store, else the
// live IDs sorted by display key (see dispKey). Concurrent first builds
// race safely; the loser's copy is dropped.
func (w *WSD) displayOrder() []int32 {
	if o := w.order.Load(); o != nil {
		return *o
	}
	ids := make([]int32, 0, w.live)
	w.comps.each(func(ci int, c *component) bool {
		if !c.dead() {
			ids = append(ids, int32(ci))
		}
		return true
	})
	if !w.dense {
		keys := make([]dispKey, len(ids))
		for i, ci := range ids {
			keys[i] = w.dispKeyOf(w.comps.ref(int(ci)))
		}
		sortByDispKey(ids, keys)
	}
	if w.order.CompareAndSwap(nil, &ids) {
		return ids
	}
	return *w.order.Load()
}

// comp returns component ci (a tombstone reads as having no
// alternatives). Callers must not mutate it.
func (w *WSD) comp(ci int) *component { return w.comps.ref(ci) }

// fact returns the stored fact with the given ID.
func (w *WSD) fact(id int32) storedFact { return w.facts.at(int(id)) }

// compOf returns the component owning fact id, -1 when the fact is
// outside the support (a hole, or interned after the derived state).
func (w *WSD) compOf(id int32) int32 {
	if int(id) >= w.factState.len() {
		return -1
	}
	return w.factState.ref(int(id)).comp
}

// isCertain reports whether fact id is in every alternative of its
// component.
func (w *WSD) isCertain(id int32) bool {
	return int(id) < w.factState.len() && w.factState.ref(int(id)).certain
}

// noTemplates is the template list of every relation of a
// decomposition without templates. It is never written.
var noTemplates idList

// tmplsOf returns relation ri's template list.
func (w *WSD) tmplsOf(ri int32) *idList {
	if w.attrByRel == nil {
		return &noTemplates
	}
	return &w.attrByRel[ri]
}

// hasTemplates reports whether any component is attribute-level.
func (w *WSD) hasTemplates() bool {
	for i := range w.attrByRel {
		if w.attrByRel[i].len() > 0 {
			return true
		}
	}
	return false
}

// altCount returns a component's alternative count, saturating at the
// int maximum for attribute-level templates whose product overflows.
func (c *component) altCount() int {
	if c.attr != nil {
		n, _ := c.attr.countInt()
		return n
	}
	return len(c.alts)
}

// Size returns the number of distinct facts in the decomposition's
// support. Attribute-level components contribute their instantiation
// count (the product of their slot domains) without materializing it;
// the total saturates at the int maximum.
func (w *WSD) Size() int {
	n, _ := w.SupportSize()
	return n
}

// Empty reports whether the decomposition denotes the empty world set.
func (w *WSD) Empty() bool { w.ensure(); return w.empty }

// TupleFact is one ground fact in interned form: a relation's schema
// position (see RelIndex) and its tuple of interned constants. It is
// the builder and reader currency of callers that already hold
// interned tuples (the wsdalg evaluator), so no name is resolved and
// re-interned on the way through.
type TupleFact struct {
	Rel   int
	Tuple sym.Tuple
}

// RelIndex returns the schema position of relation name; ok is false
// when the schema has no such relation.
func (w *WSD) RelIndex(name string) (int, bool) {
	ri, ok := w.schemaIdx[name]
	return ri, ok
}

// AddComponent appends a component with the given alternatives. The facts
// are interned against the schema; unknown relations and arity mismatches
// are errors. Alternatives may repeat and may overlap other components'
// supports — Normalize (run lazily by the query methods) deduplicates,
// merges dependent components and splits independent ones.
//
// A component with zero alternatives is legal and collapses the whole
// decomposition to the empty world set.
//
// AddComponent is the boundary form of AddComponentTuples: it resolves
// relation names and interns the constants, then builds through it.
func (w *WSD) AddComponent(alts ...Alt) error {
	talts := make([][]TupleFact, len(alts))
	for i, alt := range alts {
		ts := make([]TupleFact, len(alt))
		for k, f := range alt {
			ri, ok := w.RelIndex(f.Rel)
			if !ok {
				return fmt.Errorf("wsd: fact %s references unknown relation %s", f, f.Rel)
			}
			ts[k] = TupleFact{Rel: ri, Tuple: f.Args.Intern()}
		}
		talts[i] = ts
	}
	return w.AddComponentTuples(talts...)
}

// AddComponentTuples appends a component whose alternatives are given
// as interned facts. Every fact is validated before any is stored: a
// relation index outside the schema, an arity mismatch or a
// non-constant symbol in the tuple is an error and leaves the
// decomposition unchanged.
// Tuples are copied when first stored, so callers keep ownership of
// theirs. Otherwise it is AddComponent: the decomposition is left
// denormalized, and zero alternatives denote the empty world set.
func (w *WSD) AddComponentTuples(alts ...[]TupleFact) error {
	for _, alt := range alts {
		for _, f := range alt {
			if err := w.checkTupleFact(f); err != nil {
				return err
			}
		}
	}
	c := component{alts: make([][]int32, len(alts))}
	for i, alt := range alts {
		ids := make([]int32, len(alt))
		for k, f := range alt {
			ids[k] = w.intern(int32(f.Rel), f.Tuple)
		}
		c.alts[i] = sortDedupIDs(ids)
	}
	w.addPending(c)
	return nil
}

// addPending appends a built component, moving a normalized
// decomposition back to the builder form first.
func (w *WSD) addPending(c component) {
	if w.normalized && w.live > 0 {
		w.pending = w.liveComponents()
		w.compsShared = true
	}
	w.pending = append(w.pending, c)
	w.normalized = false
}

// liveComponents returns the store's live components, by value (their
// alternative slices and templates stay shared).
func (w *WSD) liveComponents() []component {
	out := make([]component, 0, w.live)
	w.comps.each(func(_ int, c *component) bool {
		if !c.dead() {
			out = append(out, *c)
		}
		return true
	})
	return out
}

// checkTupleFact validates an interned fact against the schema.
func (w *WSD) checkTupleFact(f TupleFact) error {
	if f.Rel < 0 || f.Rel >= len(w.schema) {
		return fmt.Errorf("wsd: fact relation index %d outside the schema's %d relations", f.Rel, len(w.schema))
	}
	r := w.schema[f.Rel]
	if len(f.Tuple) != r.Arity {
		return fmt.Errorf("wsd: fact %s has arity %d, relation %s expects %d",
			w.boundary(int32(f.Rel), f.Tuple), len(f.Tuple), r.Name, r.Arity)
	}
	for i, id := range f.Tuple {
		if id.IsVar() { // a variable, or the None sentinel
			return fmt.Errorf("wsd: fact of %s holds a non-constant symbol at position %d; facts must be ground", r.Name, i)
		}
	}
	return nil
}

// intern stores (or finds) a fact, returning its dense ID. The tuple is
// copied only on actual insertion. On a snapshot clone the table and
// index are un-shared first (copy-on-write; see update.go).
func (w *WSD) intern(relIdx int32, t sym.Tuple) int32 {
	h := factHash(relIdx, t)
	if id, ok := w.find(h, relIdx, t); ok {
		return id
	}
	w.cowFacts()
	id := int32(w.facts.push(storedFact{rel: relIdx, tuple: t.Clone()}))
	if !w.indexShared {
		w.factIndex.add(h, id)
		return id
	}
	if foldDiv*(w.factDelta.n+1) > w.factIndex.n {
		// Fold: one fresh index over every fact.
		w.factIndex = newFactSet(w.facts.len())
		w.factDelta = factSet{}
		w.indexShared = false
		w.facts.each(func(i int, f *storedFact) bool {
			w.factIndex.add(factHash(f.rel, f.tuple), int32(i))
			return true
		})
		return id
	}
	w.factDelta.add(h, id)
	return id
}

// lookup finds an already-interned fact without growing the fact table.
func (w *WSD) lookup(relIdx int32, t sym.Tuple) (int32, bool) {
	return w.find(factHash(relIdx, t), relIdx, t)
}

// find probes the fact index — its base, then its delta — for
// (relIdx, t), whose fingerprint is h.
func (w *WSD) find(h uint64, relIdx int32, t sym.Tuple) (int32, bool) {
	if id, ok := w.findIn(&w.factIndex, h, relIdx, t); ok {
		return id, true
	}
	if w.factDelta.n == 0 {
		return 0, false
	}
	return w.findIn(&w.factDelta, h, relIdx, t)
}

// findIn probes one fact set.
func (w *WSD) findIn(x *factSet, h uint64, relIdx int32, t sym.Tuple) (int32, bool) {
	if len(x.ids) == 0 {
		return 0, false
	}
	mask := uint64(len(x.ids) - 1)
	for i := h & mask; x.ids[i] != 0; i = (i + 1) & mask {
		if x.hashes[i] != h {
			continue
		}
		id := x.ids[i] - 1
		if f := w.facts.ref(int(id)); f.rel == relIdx && f.tuple.Equal(t) {
			return id, true
		}
	}
	return 0, false
}

// factSet is the fact table's index: an open-addressing hash table of
// fact IDs keyed by fingerprint (linear probing, at most half full),
// held in two dense arrays. Facts are never removed from it — a deleted
// fact stays a hole in the table — so it needs no tombstones, and a copy
// (copy-on-write, Clone) is two slice copies.
type factSet struct {
	hashes []uint64 // slot -> fingerprint of the fact it holds
	ids    []int32  // slot -> fact ID + 1; 0 marks an empty slot
	n      int      // facts held
}

// newFactSet returns an empty index sized for n facts.
func newFactSet(n int) factSet {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return factSet{hashes: make([]uint64, size), ids: make([]int32, size)}
}

// add inserts fact id with fingerprint h (absent by contract).
func (s *factSet) add(h uint64, id int32) {
	if 2*(s.n+1) > len(s.ids) {
		grown := newFactSet(s.n + 1)
		for i, old := range s.ids {
			if old != 0 {
				grown.add(s.hashes[i], old-1)
			}
		}
		*s = grown
	}
	mask := uint64(len(s.ids) - 1)
	i := h & mask
	for s.ids[i] != 0 {
		i = (i + 1) & mask
	}
	s.hashes[i], s.ids[i] = h, id+1
	s.n++
}

// clone returns an independent copy.
func (s *factSet) clone() factSet {
	return factSet{hashes: slices.Clone(s.hashes), ids: slices.Clone(s.ids), n: s.n}
}

// lookupBoundary resolves a boundary fact to its ID without growing any
// intern table (mirrors rel.Relation.Has: never-seen constants cannot be
// in the support).
func (w *WSD) lookupBoundary(relName string, f rel.Fact) (int32, bool) {
	ri, ok := w.schemaIdx[relName]
	if !ok || len(f) != w.schema[ri].Arity {
		return 0, false
	}
	t := make(sym.Tuple, len(f))
	for i, c := range f {
		id, ok := sym.LookupConst(c)
		if !ok {
			return 0, false
		}
		t[i] = id
	}
	return w.lookup(int32(ri), t)
}

// resolve converts a stored fact back to boundary form.
func (w *WSD) resolve(id int32) Fact {
	f := w.fact(id)
	return w.boundary(f.rel, f.tuple)
}

// boundary resolves an interned fact to its names.
func (w *WSD) boundary(ri int32, t sym.Tuple) Fact {
	return Fact{Rel: w.schema[ri].Name, Args: rel.ResolveFact(t)}
}

// factLess is the canonical display order of stored facts: schema
// position first, then tuple by symbol name.
func (w *WSD) factLess(a, b int32) bool {
	fa, fb := w.fact(a), w.fact(b)
	if fa.rel != fb.rel {
		return fa.rel < fb.rel
	}
	for i := range fa.tuple {
		if c := sym.Compare(fa.tuple[i], fb.tuple[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// ensure lazily re-establishes the normalized invariants after builder
// mutations. It panics if normalization fails (the only failure mode is
// the merged-component blow-up guard, a structural property of the input
// the caller chose to build) — callers that want the error call Normalize
// themselves.
func (w *WSD) ensure() {
	if w.normalized {
		return
	}
	if err := w.Normalize(); err != nil {
		panic("wsd: " + err.Error())
	}
}

// Clone returns a deep copy, with the same component IDs.
func (w *WSD) Clone() *WSD {
	c := New(w.schema)
	c.empty = w.empty
	c.normalized = w.normalized
	c.holes = w.holes
	c.factsLoose = w.factsLoose
	facts := w.facts.slice()
	for i, f := range facts {
		facts[i].tuple = f.tuple.Clone()
	}
	c.facts = chunkedOf(facts)
	c.factIndex = w.factIndex.clone()
	c.factDelta = w.factDelta.clone()
	c.pending = make([]component, len(w.pending))
	for i := range w.pending {
		c.pending[i] = w.pending[i].clone()
	}
	if !w.normalized {
		return c
	}
	comps := w.comps.slice()
	for i := range comps {
		comps[i] = comps[i].clone()
	}
	c.comps = chunkedOf(comps)
	c.live = w.live
	c.dense = w.dense
	c.factState = chunkedOf(w.factState.slice())
	c.certainComp = w.certainComp
	if w.attrByRel != nil {
		c.attrByRel = make([]idList, len(w.attrByRel))
		for ri := range w.attrByRel {
			c.attrByRel[ri] = listOf(slices.Clone(w.attrByRel[ri].view()))
		}
	}
	c.units, c.altFacts = w.units, w.altFacts
	c.free = slices.Clone(w.free)
	return c
}

// clone deep-copies a component (a tombstone stays one).
func (c *component) clone() component {
	if c.attr != nil {
		return component{attr: c.attr.clone()}
	}
	if c.alts == nil {
		return component{}
	}
	cc := component{alts: make([][]int32, len(c.alts))}
	for j, a := range c.alts {
		cc.alts[j] = append([]int32(nil), a...)
	}
	if c.altIndex != nil {
		cc.altIndex = make(map[uint64][]int32, len(c.altIndex))
		for h, bucket := range c.altIndex {
			cc.altIndex[h] = append([]int32(nil), bucket...)
		}
	}
	return cc
}

// String renders the decomposition in .pw @wsd syntax (parsable by
// parse.ParseWSD). The output reflects the current component structure;
// parser and printer round-trip through the normalized form.
func (w *WSD) String() string {
	var b strings.Builder
	b.WriteString("@wsd")
	for _, r := range w.schema {
		fmt.Fprintf(&b, "\n  relation: %s(%d)", r.Name, r.Arity)
	}
	if w.empty {
		// Canonical spelling of ∅: a single component with no alternatives.
		b.WriteString("\n  component:")
		return b.String()
	}
	comps := w.pending
	if w.normalized {
		comps = make([]component, 0, w.live)
		for _, ci := range w.displayOrder() {
			comps = append(comps, *w.comp(int(ci)))
		}
	}
	for _, c := range comps {
		b.WriteString("\n  component:")
		if c.attr != nil {
			b.WriteString("\n    tmpl: " + w.templateString(c.attr))
			continue
		}
		for _, alt := range c.alts {
			ids := alt
			if w.factsLoose {
				// Incrementally updated decompositions keep stable (not
				// display-ordered) fact IDs; render in display order so the
				// printed form stays canonical.
				ids = append([]int32(nil), alt...)
				sort.Slice(ids, func(i, j int) bool { return w.factLess(ids[i], ids[j]) })
			}
			b.WriteString("\n    alt:")
			for i, id := range ids {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(" " + w.resolve(id).String())
			}
		}
	}
	return b.String()
}

// sortDedupIDs sorts ids ascending and removes duplicates in place.
func sortDedupIDs(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// idsEqual reports element-wise equality of sorted ID lists.
func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FNV-1a parameters (word-wise, matching the spirit of sym.HashIDs).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// factHash fingerprints a fact for the fact-table index.
func factHash(relIdx int32, t sym.Tuple) uint64 {
	h := uint64(fnvOffset)
	h ^= uint64(uint32(relIdx))
	h *= fnvPrime
	for _, id := range t {
		h ^= uint64(id)
		h *= fnvPrime
	}
	return sym.Mix(h)
}

// altHash fingerprints a sorted fact-ID list for alternative dedup and
// membership probes. Fingerprints accelerate, never decide: every consumer
// keeps collision buckets and confirms with idsEqual.
func altHash(ids []int32) uint64 {
	h := uint64(fnvOffset)
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= fnvPrime
	}
	return sym.Mix(h)
}
