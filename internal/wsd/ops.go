// Native decision procedures on the decomposition. None of them
// enumerate worlds: counting is a product of component sizes, membership
// is one fingerprint probe per component, and possibility/certainty of
// facts are support lookups. All run in time polynomial in the size of
// the decomposition, even when it denotes astronomically many worlds.
package wsd

import (
	"math/big"
	"math/rand"
	"slices"

	"pw/internal/rel"
	"pw/internal/sym"
)

// Count returns the exact number of worlds the decomposition denotes:
// the product of the component sizes, where an attribute-level
// component's size is the product of its slot domain sizes — computed
// without materializing any field product, so a decomposition of a few
// hundred template slots counts 2^100+ worlds exactly. Exactness relies
// on the normalized invariants (disjoint supports, distinct
// alternatives), which make the choice-vector → world map injective.
func (w *WSD) Count() *big.Int { return new(big.Int).Set(w.countMemo()) }

// countMemo is Count without the copy: the value memoized for this
// normalized version, computed on first use. Callers must not mutate it.
func (w *WSD) countMemo() *big.Int {
	w.ensure()
	if w.empty {
		return new(big.Int)
	}
	n := w.count.Load()
	if n == nil {
		n = big.NewInt(1)
		w.comps.each(func(_ int, c *component) bool {
			if !c.dead() {
				n.Mul(n, c.bigCount())
			}
			return true
		})
		w.count.Store(n)
	}
	return n
}

// countText is one memoized decimal world count (see WSD.countText).
type countText struct {
	n *big.Int
	s string
}

// CountString returns Count in decimal, memoized for this normalized
// version: a count may run to hundreds of digits, and answering
// surfaces print it on every request. A write that keeps the count
// keeps the text (installIncremental).
func (w *WSD) CountString() string {
	n := w.countMemo()
	if t := w.countText.Load(); t != nil && t.n == n {
		return t.s
	}
	s := n.String()
	w.countText.Store(&countText{n: n, s: s})
	return s
}

// bigCount is a component's exact alternative count.
func (c *component) bigCount() *big.Int {
	if c.attr != nil {
		return c.attr.count()
	}
	return big.NewInt(int64(len(c.alts)))
}

// schemaMatches reports whether the instance has exactly the
// decomposition's relations (names and arities; order-insensitive) —
// the same strictness as rel.Instance.Equal, which the worlds oracle
// decides membership with.
func (w *WSD) schemaMatches(i *rel.Instance) bool {
	if len(i.Relations()) != len(w.schema) {
		return false
	}
	for _, s := range w.schema {
		r := i.Relation(s.Name)
		if r == nil || r.Arity != s.Arity {
			return false
		}
	}
	return true
}

// Member decides MEMB(−) on the decomposition: i ∈ rep(w)? One pass over
// the instance's facts plus one alternative probe per component —
// polynomial time, per component, as promised by the WSD papers. An
// attribute-level component never materializes its field product: a
// fact resolves to it by positionwise slot-domain membership, and the
// instance matches iff exactly one of its facts instantiates the
// template (every world contains exactly one instantiation).
func (w *WSD) Member(i *rel.Instance) bool {
	w.ensure()
	if w.empty || !w.schemaMatches(i) {
		return false
	}
	// Partition the instance's facts by component; a fact outside the
	// support can appear in no world.
	perComp := make([][]int32, w.comps.len())
	attrHits := make([]int, w.comps.len())
	for _, r := range i.Relations() {
		ri := int32(w.schemaIdx[r.Name])
		for _, t := range r.Tuples() {
			// A stored fact without a component is a hole left by an
			// update: outside the support unless a template covers it.
			if id, ok := w.lookup(ri, t); ok && w.compOf(id) >= 0 {
				ci := w.compOf(id)
				perComp[ci] = append(perComp[ci], id)
				continue
			}
			ci, ok := w.attrOwner(ri, t)
			if !ok {
				return false
			}
			attrHits[ci]++
		}
	}
	// The instance is a world iff its restriction to every component's
	// support is one of that component's alternatives (including the
	// empty restriction matching an empty alternative) — for a template,
	// iff exactly one instance fact instantiates it.
	member := true
	w.comps.each(func(ci int, c *component) bool {
		switch {
		case c.dead():
		case c.attr != nil:
			member = attrHits[ci] == 1
		default:
			ids := perComp[ci]
			slices.Sort(ids)
			member = c.hasAlt(ids)
		}
		return member
	})
	return member
}

// attrOwner resolves a tuple outside the stored fact table to the
// attribute-level component whose template can instantiate it. Only the
// templates posted under t's value in the relation's owner column are
// tested: a template that can instantiate t holds t[j] in every cell j.
func (w *WSD) attrOwner(relIdx int32, t sym.Tuple) (int32, bool) {
	if w.tmplsOf(relIdx).len() == 0 {
		return 0, false // no template to find; do not build the index for that
	}
	p := w.postingIndex()
	j := p.rels[relIdx].ownerCol
	for _, ci := range w.column(p, int(relIdx), j, true).lookup(t[j]) {
		if w.comp(int(ci)).attr.contains(t) {
			return ci, true
		}
	}
	return 0, false
}

// hasAlt reports whether the sorted ID list is one of the component's
// alternatives (fingerprint probe with exact confirmation).
func (c *component) hasAlt(ids []int32) bool {
	for _, ai := range c.altIndex[altHash(ids)] {
		if idsEqual(c.alts[ai], ids) {
			return true
		}
	}
	return false
}

// PossibleFact decides POSS(1,−): does some world contain the fact? On a
// normalized decomposition the support is exactly the set of possible
// facts (every stored fact occurs in some alternative, every template
// instantiation in some slot choice, and the other components are
// independent), so this is a fact-table lookup plus a positionwise
// template probe.
func (w *WSD) PossibleFact(relName string, f rel.Fact) bool {
	w.ensure()
	if w.empty {
		return false
	}
	if id, ok := w.lookupBoundary(relName, f); ok && w.compOf(id) >= 0 {
		return true
	}
	_, ok := w.attrOwnerBoundary(relName, f)
	return ok
}

// attrOwnerBoundary resolves a boundary fact to the attribute-level
// component that can instantiate it, without growing any intern table.
func (w *WSD) attrOwnerBoundary(relName string, f rel.Fact) (int32, bool) {
	ri, ok := w.schemaIdx[relName]
	if !ok || len(f) != w.schema[ri].Arity || w.tmplsOf(int32(ri)).len() == 0 {
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
	return w.attrOwner(int32(ri), t)
}

// CertainFact decides CERT(1,−): does every world contain the fact? True
// iff the fact occurs in every alternative of its component. Vacuously
// true on the empty world set, matching the worlds oracle.
func (w *WSD) CertainFact(relName string, f rel.Fact) bool {
	w.ensure()
	if w.empty {
		return true
	}
	id, ok := w.lookupBoundary(relName, f)
	return ok && w.isCertain(id)
}

// Possible decides POSS(∗,−): does some world contain every fact of p?
// Because components are independent, this holds iff each component has
// an alternative containing all of p's facts that fall in its support —
// checked with sorted-list inclusion, no enumeration. A template's
// alternatives are single instantiations, so at most one of p's facts
// may fall in any one attribute-level component.
func (w *WSD) Possible(p *rel.Instance) bool {
	w.ensure()
	if w.empty {
		return false
	}
	perComp := make(map[int32][]int32)
	attrHits := make(map[int32]int)
	for _, r := range p.Relations() {
		ri, ok := w.schemaIdx[r.Name]
		if !ok {
			if r.Len() > 0 {
				return false
			}
			continue
		}
		for _, t := range r.Tuples() {
			id, found := w.lookup(int32(ri), t)
			if !found || w.compOf(id) < 0 {
				ci, ok := w.attrOwner(int32(ri), t)
				if !ok {
					return false
				}
				if attrHits[ci]++; attrHits[ci] > 1 {
					return false // two distinct instantiations of one template never co-occur
				}
				continue
			}
			ci := w.compOf(id)
			perComp[ci] = append(perComp[ci], id)
		}
	}
	for ci, need := range perComp {
		slices.Sort(need)
		found := false
		for _, alt := range w.comp(int(ci)).alts {
			if containsSorted(alt, need) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Certain decides CERT(∗,−): does every world contain every fact of p?
// True iff each of p's facts is certain. Vacuously true on ∅.
func (w *WSD) Certain(p *rel.Instance) bool {
	w.ensure()
	if w.empty {
		return true
	}
	for _, r := range p.Relations() {
		ri, ok := w.schemaIdx[r.Name]
		if !ok {
			if r.Len() > 0 {
				return false
			}
			continue
		}
		for _, t := range r.Tuples() {
			id, found := w.lookup(int32(ri), t)
			if !found || !w.isCertain(id) {
				return false
			}
		}
	}
	return true
}

// containsSorted reports whether the sorted list sub is contained in the
// sorted list sup.
func containsSorted(sup, sub []int32) bool {
	i := 0
	for _, want := range sub {
		for i < len(sup) && sup[i] < want {
			i++
		}
		if i >= len(sup) || sup[i] != want {
			return false
		}
		i++
	}
	return true
}

// World materializes the world selected by one alternative index per
// component, in display order (choice[p] picks an alternative of
// component Order()[p]). It panics on a malformed choice vector
// (programming error).
func (w *WSD) World(choice []int) *rel.Instance {
	w.ensure()
	if w.empty {
		panic("wsd: World on the empty world set")
	}
	order := w.displayOrder()
	if len(choice) != len(order) {
		panic("wsd: choice vector length mismatch")
	}
	inst := rel.NewInstance()
	for _, s := range w.schema {
		inst.AddRelation(rel.NewRelation(s.Name, s.Arity))
	}
	for p, ai := range choice {
		c := w.comp(int(order[p]))
		if a := c.attr; a != nil {
			if _, ok := a.countInt(); !ok {
				panic("wsd: World on a template with more alternatives than fit an int; enumerate with Count/Sample instead")
			}
			inst.Relations()[a.rel].Insert(a.tupleAt(ai))
			continue
		}
		for _, id := range c.alts[ai] {
			f := w.fact(id)
			inst.Relations()[f.rel].Insert(f.tuple)
		}
	}
	return inst
}

// Each enumerates the worlds of the decomposition in odometer order over
// the choice vectors, calling fn for each; enumeration stops early (and
// Each returns true) when fn returns true. Distinct choices yield
// distinct worlds (normalized invariants), so no dedup pass is needed —
// but the world count is the product of component sizes, so callers
// bound the enumeration themselves (see Expand).
func (w *WSD) Each(fn func(*rel.Instance) bool) bool {
	w.ensure()
	if w.empty {
		return false
	}
	order := w.displayOrder()
	choice := make([]int, len(order))
	for {
		if fn(w.World(choice)) {
			return true
		}
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < w.comp(int(order[i])).altCount() {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return false
		}
	}
}

// Expand materializes at most limit worlds (limit <= 0 means all — only
// safe when Count is known small). It is the bounded inverse of
// FromWorlds: Expand(FromWorlds(W), 0) reproduces W up to order.
func (w *WSD) Expand(limit int) []*rel.Instance {
	var out []*rel.Instance
	w.Each(func(i *rel.Instance) bool {
		out = append(out, i)
		return limit > 0 && len(out) >= limit
	})
	return out
}

// Sample draws one world uniformly at random: a uniform independent
// choice per component — per slot for attribute-level components, so
// sampling stays exact and cheap even when a template's field product
// is astronomically large. Exact because the choice-vector → world map
// is a bijection onto rep(w). Returns nil on the empty world set.
func (w *WSD) Sample(rng *rand.Rand) *rel.Instance {
	w.ensure()
	if w.empty {
		return nil
	}
	inst := rel.NewInstance()
	for _, s := range w.schema {
		inst.AddRelation(rel.NewRelation(s.Name, s.Arity))
	}
	for _, ci := range w.displayOrder() {
		c := w.comp(int(ci))
		if a := c.attr; a != nil {
			t := make(sym.Tuple, len(a.cells))
			for i, cell := range a.cells {
				if len(cell) == 1 {
					t[i] = cell[0] // fixed slot: no choice, no rng draw
					continue
				}
				t[i] = cell[rng.Intn(len(cell))]
			}
			inst.Relations()[a.rel].Insert(t)
			continue
		}
		for _, id := range c.alts[rng.Intn(len(c.alts))] {
			f := w.fact(id)
			inst.Relations()[f.rel].Insert(f.tuple)
		}
	}
	return inst
}
