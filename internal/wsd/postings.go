// The posting index: per normalized version, which components a
// relation, or a (relation, column, constant) triple, can touch. A
// selective read — a σ(col = const) scan, a single-fact template probe —
// reads the components its posting names instead of walking the whole
// decomposition, which is how the world-set-decomposition papers make
// WSDs practical: the decomposition is stored as component and template
// relations, and a selection is answered by index access on them, so
// cost follows the part of the decomposition a query touches.
//
// Layout. Per relation: the sorted tuple-level components whose support
// mentions it, and per column two postings — tuple-level components and
// attribute-level templates — each a CSR triple of parallel arrays: the
// sorted distinct constants (binary-searched), offsets, and the
// component indices grouped by constant, ascending within a group. An
// entry costs 4 bytes per (constant, component) pair plus 8 bytes per
// distinct constant (4 in a key-like column, which needs no offsets);
// there is no map and no per-constant slice header.
//
// Lifecycle. The index is derived state of one normalized version. It
// is built lazily — a decomposition nobody probes, such as a cached
// answer decomposition, never pays for it: the per-relation part on
// first use, each column posting on its first lookup. Every piece is
// published with a compare-and-swap, so concurrent readers of a shared
// normalized WSD may race a first build safely (the loser's copy is
// dropped). An incremental update carries the index into its successor
// (carryPostings): the pieces the parent had built are remapped to the
// new component numbering and the added components merged in, so the
// first read after a write does not rebuild what the reads before it
// built; an update that installs nothing shares the parent's index.
// Only a from-scratch derivation drops it — full normalization
// (buildIndexes), clearToEmpty, and compaction, which renormalizes.
// Clones start without one.
package wsd

import (
	"slices"
	"sync/atomic"

	"pw/internal/sym"
)

// postings is the per-version posting index (see the file comment).
type postings struct {
	rels []relPostings // indexed by schema position
	// altFacts is the fact count over every alternative of every
	// tuple-level component (a fact in k alternatives counts k times).
	altFacts int64
}

// relPostings is one relation's share of the index. Its column
// postings are built one at a time, on their first lookup: a workload
// that only ever probes one column pays for that column alone.
type relPostings struct {
	comps []int32                      // tuple-level components mentioning the relation
	cols  []atomic.Pointer[colPosting] // per column: tuple-level components by constant
	tmpls []atomic.Pointer[colPosting] // per column: templates whose cell holds the constant
	// ownerCol is the template column attrOwner probes: the one whose
	// postings are shortest on average (entries per distinct constant).
	ownerCol int
}

// colPosting maps a constant to a sorted component list: comps[off[i]:
// off[i+1]] are the components posted under vals[i]. A key-like column,
// every constant posted under exactly one component, stores no offsets
// (off is nil and vals[i] maps to comps[i]).
type colPosting struct {
	vals  []sym.ID
	off   []int32
	comps []int32
}

// lookup returns the components posted under val (nil when none). The
// slice is capacity-clipped: callers cannot append into the index.
func (p *colPosting) lookup(val sym.ID) []int32 {
	if i, found := slices.BinarySearch(p.vals, val); found {
		return p.group(i)
	}
	return nil
}

// group returns the components posted under vals[i], capacity-clipped.
func (p *colPosting) group(i int) []int32 {
	if p.off == nil {
		return p.comps[i : i+1 : i+1]
	}
	return p.comps[p.off[i]:p.off[i+1]:p.off[i+1]]
}

// newColPosting builds a posting from (constant, component) pairs
// packed as constant<<32 | component; pairs is sorted and deduplicated
// in place.
func newColPosting(pairs []uint64) colPosting {
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	distinct := 0
	for i, pr := range pairs {
		if i == 0 || pr>>32 != pairs[i-1]>>32 {
			distinct++
		}
	}
	p := colPosting{vals: make([]sym.ID, 0, distinct), comps: make([]int32, len(pairs))}
	if distinct < len(pairs) {
		p.off = make([]int32, 0, distinct+1)
	}
	for i, pr := range pairs {
		if i == 0 || pr>>32 != pairs[i-1]>>32 {
			p.vals = append(p.vals, sym.ID(pr>>32))
			if p.off != nil {
				p.off = append(p.off, int32(i))
			}
		}
		p.comps[i] = int32(uint32(pr))
	}
	if p.off != nil {
		p.off = append(p.off, int32(len(pairs)))
	}
	return p
}

// postingIndex returns the current version's posting index, building
// its per-relation part on first use. The receiver must be normalized.
func (w *WSD) postingIndex() *postings {
	if p := w.post.Load(); p != nil {
		return p
	}
	p := w.buildPostings()
	if w.post.CompareAndSwap(nil, p) {
		return p
	}
	return w.post.Load()
}

// buildPostings derives the per-relation part of the index: component
// lists, the fact total and each template relation's owner column.
// Column postings are left to column.
func (w *WSD) buildPostings() *postings {
	p := &postings{rels: make([]relPostings, len(w.schema))}
	for ri, r := range w.schema {
		p.rels[ri].cols = make([]atomic.Pointer[colPosting], r.Arity)
		p.rels[ri].tmpls = make([]atomic.Pointer[colPosting], r.Arity)
	}
	for ci := range w.comps {
		for _, alt := range w.comps[ci].alts {
			p.altFacts += int64(len(alt))
			for _, id := range alt {
				rp := &p.rels[w.facts[id].rel]
				if n := len(rp.comps); n == 0 || rp.comps[n-1] != int32(ci) {
					rp.comps = append(rp.comps, int32(ci))
				}
			}
		}
	}
	for ri := range p.rels {
		rp := &p.rels[ri]
		rp.comps = slices.Clip(rp.comps)
		rp.ownerCol = w.ownerColumn(ri)
	}
	return p
}

// ownerColumn picks relation ri's owner column: the template column
// whose postings are shortest on average (entries per distinct
// constant). It is 0 when the relation has no templates.
func (w *WSD) ownerColumn(ri int) int {
	tmpls := w.attrByRel[int32(ri)]
	if len(tmpls) == 0 {
		return 0
	}
	var vals []sym.ID
	best, bestEntries, bestDistinct := 0, 0, 0
	for j := range w.schema[ri].Arity {
		vals = vals[:0]
		for _, ci := range tmpls {
			vals = append(vals, w.comps[ci].attr.cells[j]...)
		}
		slices.Sort(vals)
		distinct := len(slices.Compact(vals))
		if j == 0 || len(vals)*bestDistinct < bestEntries*distinct {
			best, bestEntries, bestDistinct = j, len(vals), distinct
		}
	}
	return best
}

// carryPostings derives the successor's index from the parent's across
// an incremental install (see patchDerived for remap, added and
// addedAt): only the pieces the parent had built are carried, each
// remapped through the monotone remap — so every list stays sorted —
// with the added components' entries merged in. Columns the parent
// never built stay unbuilt. ownerCol is recomputed only for the
// relations whose templates changed. A nil parent index carries
// nothing: the successor builds its own on first use.
func (w *WSD) carryPostings(parent *postings, old []component, remap []int32, added []component, addedAt []int32) *postings {
	if parent == nil {
		return nil
	}
	p := &postings{rels: make([]relPostings, len(parent.rels)), altFacts: parent.altFacts}
	tmplsChanged := make(map[int32]bool)
	for ci, nc := range remap {
		if nc >= 0 {
			continue
		}
		if a := old[ci].attr; a != nil {
			tmplsChanged[a.rel] = true
		}
		for _, alt := range old[ci].alts {
			p.altFacts -= int64(len(alt))
		}
	}
	for k := range added {
		if a := added[k].attr; a != nil {
			tmplsChanged[a.rel] = true
		}
		for _, alt := range added[k].alts {
			p.altFacts += int64(len(alt))
		}
	}
	var addComps []int32
	var pairs []uint64
	for ri := range p.rels {
		prp, rp := &parent.rels[ri], &p.rels[ri]
		addComps = addComps[:0]
		for k := range added {
			if added[k].attr == nil && w.mentions(&added[k], int32(ri)) {
				addComps = append(addComps, addedAt[k])
			}
		}
		rp.comps = slices.Clip(remapSorted(prp.comps, remap, addComps))
		rp.cols = make([]atomic.Pointer[colPosting], len(prp.cols))
		rp.tmpls = make([]atomic.Pointer[colPosting], len(prp.tmpls))
		for j := range prp.cols {
			if c := prp.cols[j].Load(); c != nil {
				pairs = pairs[:0]
				for k := range added {
					for _, alt := range added[k].alts {
						for _, id := range alt {
							if f := w.facts[id]; f.rel == int32(ri) {
								pairs = append(pairs, uint64(f.tuple[j])<<32|uint64(addedAt[k]))
							}
						}
					}
				}
				rp.cols[j].Store(c.carried(remap, pairs))
			}
			if c := prp.tmpls[j].Load(); c != nil {
				pairs = pairs[:0]
				for k := range added {
					if a := added[k].attr; a != nil && a.rel == int32(ri) {
						for _, v := range a.cells[j] {
							pairs = append(pairs, uint64(v)<<32|uint64(addedAt[k]))
						}
					}
				}
				rp.tmpls[j].Store(c.carried(remap, pairs))
			}
		}
		rp.ownerCol = prp.ownerCol
		if tmplsChanged[int32(ri)] {
			rp.ownerCol = w.ownerColumn(ri)
		}
	}
	return p
}

// mentions reports whether a tuple-level component has a fact of
// relation ri in some alternative.
func (w *WSD) mentions(c *component, ri int32) bool {
	for _, alt := range c.alts {
		for _, id := range alt {
			if w.facts[id].rel == ri {
				return true
			}
		}
	}
	return false
}

// carried returns the posting with every component index mapped
// through the monotone remap (entries mapped to -1 dropped) and the
// added (constant, component) pairs, packed as in newColPosting and
// naming no component of the parent, merged in. Remapped groups stay
// ascending, so only the added pairs are sorted — the parent's entries
// are copied in one merge pass. The layout (offsets omitted for a
// key-like result) is exactly newColPosting's.
func (p *colPosting) carried(remap []int32, added []uint64) *colPosting {
	slices.Sort(added)
	added = slices.Compact(added)
	out := &colPosting{
		vals:  make([]sym.ID, 0, len(p.vals)+len(added)),
		off:   make([]int32, 0, len(p.vals)+len(added)+1),
		comps: make([]int32, 0, len(p.comps)+len(added)),
	}
	// Walk the union of the two constant lists in order; under each
	// constant, merge the parent's remapped group with the added one.
	i, a := 0, 0
	for i < len(p.vals) || a < len(added) {
		var val sym.ID
		if a == len(added) || (i < len(p.vals) && p.vals[i] <= sym.ID(added[a]>>32)) {
			val = p.vals[i]
		} else {
			val = sym.ID(added[a] >> 32)
		}
		var group []int32
		if i < len(p.vals) && p.vals[i] == val {
			group = p.group(i)
			i++
		}
		start := len(out.comps)
		for _, ci := range group {
			nc := remap[ci]
			if nc < 0 {
				continue
			}
			for ; a < len(added) && sym.ID(added[a]>>32) == val && int32(uint32(added[a])) < nc; a++ {
				out.comps = append(out.comps, int32(uint32(added[a])))
			}
			out.comps = append(out.comps, nc)
		}
		for ; a < len(added) && sym.ID(added[a]>>32) == val; a++ {
			out.comps = append(out.comps, int32(uint32(added[a])))
		}
		if len(out.comps) > start {
			out.vals = append(out.vals, val)
			out.off = append(out.off, int32(start))
		}
	}
	if len(out.vals) == len(out.comps) {
		out.off = nil
	} else {
		out.off = append(out.off, int32(len(out.comps)))
	}
	return out
}

// column returns column j's posting of relation ri, the template side
// when tmpl is set, building it on first use.
func (w *WSD) column(p *postings, ri, j int, tmpl bool) *colPosting {
	rp := &p.rels[ri]
	slot := &rp.cols[j]
	if tmpl {
		slot = &rp.tmpls[j]
	}
	if c := slot.Load(); c != nil {
		return c
	}
	var pairs []uint64
	if tmpl {
		for _, ci := range w.attrByRel[int32(ri)] {
			for _, v := range w.comps[ci].attr.cells[j] {
				pairs = append(pairs, uint64(v)<<32|uint64(ci))
			}
		}
	} else {
		for _, ci := range rp.comps {
			for _, alt := range w.comps[ci].alts {
				for _, id := range alt {
					if f := w.facts[id]; f.rel == int32(ri) {
						pairs = append(pairs, uint64(f.tuple[j])<<32|uint64(ci))
					}
				}
			}
		}
	}
	c := newColPosting(pairs)
	if slot.CompareAndSwap(nil, &c) {
		return &c
	}
	return slot.Load()
}

// RelComponents returns the tuple-level components whose support
// mentions relation ri (a schema position), ascending. The slice is
// owned by the decomposition; callers must not mutate it.
func (w *WSD) RelComponents(ri int) []int32 {
	w.ensure()
	return w.postingIndex().rels[ri].comps
}

// RelTemplates returns the attribute-level components over relation ri,
// ascending. The slice is owned by the decomposition; callers must not
// mutate it.
func (w *WSD) RelTemplates(ri int) []int32 {
	w.ensure()
	return w.attrByRel[int32(ri)]
}

// Posting returns the components that can hold a fact of relation ri
// whose column col is val: the tuple-level components with such a fact
// in some alternative, and the templates whose cell col holds val.
// Both are ascending and owned by the decomposition.
func (w *WSD) Posting(ri, col int, val sym.ID) (comps, tmpls []int32) {
	w.ensure()
	p := w.postingIndex()
	return w.column(p, ri, col, false).lookup(val), w.column(p, ri, col, true).lookup(val)
}

// AltFactCount returns the number of facts over every alternative of
// every tuple-level component, a fact counted once per alternative it
// occurs in.
func (w *WSD) AltFactCount() int64 {
	w.ensure()
	return w.postingIndex().altFacts
}

// AltTuples returns the tuples of relation ri in alternative ai of
// tuple-level component ci, in fact-ID order (nil when there are none).
// The tuples are the decomposition's interned storage, shared, not
// copied: callers must not mutate them.
func (w *WSD) AltTuples(ci, ai, ri int) []sym.Tuple {
	w.ensure()
	var out []sym.Tuple
	for _, id := range w.comps[ci].alts[ai] {
		if f := w.facts[id]; f.rel == int32(ri) {
			out = append(out, f.tuple)
		}
	}
	return out
}
