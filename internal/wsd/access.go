// Read-only structural accessors over a normalized decomposition. They
// expose the component/alternative structure and the support, so
// consumers outside the package — chiefly the lifted query evaluator of
// internal/wsdalg — can walk a decomposition without enumerating worlds
// and without reaching into its internal layout. Attribute-level
// components answer these queries from their templates; accessors that
// genuinely enumerate (SupportTuples, AltFacts over every index) cost
// output size, while the template
// accessors (IsTemplate, TemplateSlots) let slot-aware consumers avoid
// the product entirely. Components are addressed by their stable IDs
// (see WSD); Order lists the live ones in display order.
package wsd

import (
	"iter"
	"math"

	"pw/internal/rel"
	"pw/internal/sym"
)

// StoredTuples yields the stored facts of the support — SupportTuples
// without the template instantiations — in fact-ID order. Stored tuples
// are the decomposition's own, shared: callers must not mutate them.
func (w *WSD) StoredTuples() iter.Seq[TupleFact] {
	w.ensure()
	return func(yield func(TupleFact) bool) { w.eachStored(yield) }
}

// eachStored yields the stored facts of the support in fact-ID order;
// it reports whether the walk ran to the end.
func (w *WSD) eachStored(yield func(TupleFact) bool) bool {
	done := true
	w.facts.each(func(id int, f *storedFact) bool {
		if w.compOf(int32(id)) < 0 {
			return true // hole left by an update: outside the support
		}
		done = yield(TupleFact{Rel: int(f.rel), Tuple: f.tuple})
		return done
	})
	return done
}

// SupportTuples yields the support in interned form: the stored facts
// in fact-ID order, then each template's instantiations in odometer
// order (display order only when the decomposition has no template and
// no update reordered its facts). On a normalized decomposition the
// support is exactly the set of possible facts. Stored tuples are the
// decomposition's own, shared: callers must not mutate them. A
// template with more instantiations than fit an int panics; check
// SupportSize first.
func (w *WSD) SupportTuples() iter.Seq[TupleFact] {
	w.ensure()
	return func(yield func(TupleFact) bool) {
		if !w.eachStored(yield) {
			return
		}
		for ri := range w.attrByRel {
			for _, ci := range w.attrByRel[ri].view() {
				if !w.yieldInstantiations(w.comp(int(ci)).attr, yield) {
					return
				}
			}
		}
	}
}

// yieldInstantiations yields a template's instantiations in odometer
// order; it reports whether the walk ran to the end.
func (w *WSD) yieldInstantiations(a *attrComp, yield func(TupleFact) bool) bool {
	n, ok := a.countInt()
	if !ok {
		panic("wsd: SupportTuples on a template with more instantiations than fit an int")
	}
	for ai := 0; ai < n; ai++ {
		if !yield(TupleFact{Rel: int(a.rel), Tuple: a.tupleAt(ai)}) {
			return false
		}
	}
	return true
}

// SupportSize returns the number of facts SupportTuples would yield; ok
// is false when a template's instantiation count overflows int (the
// regime where SupportTuples would panic). Callers that materialize the
// support check this first and surface an error instead.
func (w *WSD) SupportSize() (n int, ok bool) {
	w.ensure()
	n = w.facts.len() - w.holes
	for ri := range w.attrByRel {
		for _, ci := range w.attrByRel[ri].view() {
			k, kOK := w.comp(int(ci)).attr.countInt()
			if !kOK || n > math.MaxInt-k {
				return math.MaxInt, false
			}
			n += k
		}
	}
	return n, true
}

// CertainTuples yields the certain facts in interned form, in fact-ID
// order (display order unless an update reordered the facts). Template
// instantiations are never certain (a normalized template keeps at
// least two alternatives). The tuples are the decomposition's own, shared:
// callers must not mutate them.
func (w *WSD) CertainTuples() iter.Seq[TupleFact] {
	w.ensure()
	return func(yield func(TupleFact) bool) {
		w.facts.each(func(id int, f *storedFact) bool {
			return !w.isCertain(int32(id)) || yield(TupleFact{Rel: int(f.rel), Tuple: f.tuple})
		})
	}
}

// AltCount returns the number of alternatives of component ci (0 for a
// tombstone). For an
// attribute-level component this is the product of its slot domain
// sizes, saturating at the int maximum (see Count for exactness).
func (w *WSD) AltCount(ci int) int {
	w.ensure()
	return w.comp(ci).altCount()
}

// AltFacts returns alternative ai of component ci as a fresh fact slice
// in canonical (fact-ID) order. The empty alternative returns nil; an
// attribute-level component's alternative is the single instantiation
// selected by ai in odometer order over its slots.
func (w *WSD) AltFacts(ci, ai int) []Fact {
	w.ensure()
	if a := w.comp(ci).attr; a != nil {
		return []Fact{w.boundary(a.rel, a.tupleAt(ai))}
	}
	alt := w.comp(ci).alts[ai]
	out := make([]Fact, len(alt))
	for k, id := range alt {
		out[k] = w.resolve(id)
	}
	return out
}

// IsTemplate reports whether component ci is attribute-level: one fact
// template whose alternatives are the cross product of per-slot value
// lists.
func (w *WSD) IsTemplate(ci int) bool {
	w.ensure()
	return w.comp(ci).attr != nil
}

// TemplateSlots returns the template of an attribute-level component:
// its relation name and one sorted value list per slot. ok is false for
// tuple-level components. The returned slices are owned by the WSD;
// callers must not mutate them. Slot-aware consumers (the wsdalg
// evaluator) use this to push σ/π/ρ through the factored form without
// expanding the field product.
func (w *WSD) TemplateSlots(ci int) (relName string, cells [][]sym.ID, ok bool) {
	w.ensure()
	a := w.comp(ci).attr
	if a == nil {
		return "", nil, false
	}
	return w.schema[a.rel].Name, a.cells, true
}

// FactComponent returns the ID of the component whose support
// contains the given fact, or ok=false when the fact is outside the
// support (equivalently: impossible). Never grows the intern tables.
func (w *WSD) FactComponent(relName string, f rel.Fact) (int, bool) {
	w.ensure()
	if w.empty {
		return 0, false
	}
	if id, ok := w.lookupBoundary(relName, f); ok && w.compOf(id) >= 0 {
		return int(w.compOf(id)), true
	}
	ci, ok := w.attrOwnerBoundary(relName, f)
	return int(ci), ok
}

// HasAlternative reports whether the given fact set (order- and
// duplicate-insensitive) is exactly one of component ci's alternatives.
// Facts outside the support make the answer false (they can be in no
// alternative). For an attribute-level component the alternatives are
// exactly the singleton instantiations of its template.
func (w *WSD) HasAlternative(ci int, facts []Fact) bool {
	w.ensure()
	if a := w.comp(ci).attr; a != nil {
		if len(facts) == 0 {
			return false
		}
		first := facts[0]
		for _, f := range facts[1:] {
			if f.Rel != first.Rel || !f.Args.Equal(first.Args) {
				return false
			}
		}
		if first.Rel != w.schema[a.rel].Name || len(first.Args) != len(a.cells) {
			return false
		}
		t := make(sym.Tuple, len(first.Args))
		for i, c := range first.Args {
			id, ok := sym.LookupConst(c)
			if !ok {
				return false
			}
			t[i] = id
		}
		return a.contains(t)
	}
	ids := make([]int32, 0, len(facts))
	for _, f := range facts {
		id, ok := w.lookupBoundary(f.Rel, f.Args)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	return w.comp(ci).hasAlt(sortDedupIDs(ids))
}
