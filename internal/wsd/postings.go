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
// dropped). Every rebuild of the other derived arrays (buildIndexes,
// rebuildDerived, clearToEmpty) drops the whole index; clones and
// snapshots start without one.
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
	i, found := slices.BinarySearch(p.vals, val)
	switch {
	case !found:
		return nil
	case p.off == nil:
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
	var vals []sym.ID
	for ri := range p.rels {
		rp := &p.rels[ri]
		rp.comps = slices.Clip(rp.comps)
		tmpls := w.attrByRel[int32(ri)]
		if len(tmpls) == 0 {
			continue
		}
		bestEntries, bestDistinct := 0, 0
		for j := range rp.tmpls {
			vals = vals[:0]
			for _, ci := range tmpls {
				vals = append(vals, w.comps[ci].attr.cells[j]...)
			}
			slices.Sort(vals)
			distinct := len(slices.Compact(vals))
			if j == 0 || len(vals)*bestDistinct < bestEntries*distinct {
				rp.ownerCol, bestEntries, bestDistinct = j, len(vals), distinct
			}
		}
	}
	return p
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
