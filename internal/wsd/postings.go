// The posting index: per normalized version, which components a
// relation, or a (relation, column, constant) triple, can touch. A
// selective read — a σ(col = const) scan, a single-fact template probe —
// reads the components its posting names instead of walking the whole
// decomposition, which is how the world-set-decomposition papers make
// WSDs practical: the decomposition is stored as component and template
// relations, and a selection is answered by index access on them, so
// cost follows the part of the decomposition a query touches.
//
// Layout. Per relation: the ascending IDs of the tuple-level components
// whose support mentions it, and per column two postings — tuple-level
// components and attribute-level templates — each a CSR triple of
// parallel arrays: the sorted distinct constants (binary-searched),
// offsets, and the component IDs grouped by constant, ascending within
// a group. An
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
// by delta (carryPostings): component IDs are stable, so a piece no
// changed component touches is shared with the parent as is; a
// relation's component list takes the write's delta (an idList, see
// store.go); and a built column posting keeps its base and records the
// groups the write changed — the constants whose postings the changed
// components alter — as replacement groups that lookups consult first.
// Once the replacements' entries outgrow 1/foldDiv of the base's they
// are folded into a fresh base. Columns the parent never built stay
// unbuilt, so the first read after a write does not rebuild what the
// reads before it built, and an update that installs nothing shares
// the parent's index. Only a from-scratch derivation drops it — full
// normalization (buildIndexes), clearToEmpty, and compaction, which
// renormalizes. Clones start without one.
package wsd

import (
	"slices"
	"sync/atomic"

	"pw/internal/sym"
)

// postings is the per-version posting index (see the file comment).
type postings struct {
	rels []relPostings // indexed by schema position
}

// relPostings is one relation's share of the index. Its column
// postings are built one at a time, on their first lookup: a workload
// that only ever probes one column pays for that column alone.
type relPostings struct {
	comps idList                       // tuple-level components mentioning the relation
	cols  []atomic.Pointer[colPosting] // per column: tuple-level components by constant
	tmpls []atomic.Pointer[colPosting] // per column: templates whose cell holds the constant
	// ownerCol is the template column attrOwner probes: the one whose
	// postings are shortest on average (entries per distinct constant).
	ownerCol int
}

// colPosting maps a constant to an ascending component list. Its base
// is a CSR triple: comps[off[i]:off[i+1]] are the components posted
// under vals[i]; a key-like column, every constant posted under exactly
// one component, stores no offsets (off is nil and vals[i] maps to
// comps[i]). Its delta replaces whole groups: under dvals[i] (ascending)
// the components are dgroups[i], whatever the base says.
type colPosting struct {
	vals    []sym.ID
	off     []int32
	comps   []int32
	dvals   []sym.ID
	dgroups [][]int32
}

// lookup returns the components posted under val (nil when none). The
// slice is capacity-clipped: callers cannot append into the index.
func (p *colPosting) lookup(val sym.ID) []int32 {
	if len(p.dvals) > 0 {
		if i, found := slices.BinarySearch(p.dvals, val); found {
			return p.dgroups[i]
		}
	}
	if i, found := slices.BinarySearch(p.vals, val); found {
		return p.group(i)
	}
	return nil
}

// group returns the base components posted under vals[i],
// capacity-clipped.
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

// withDelta returns the posting with the groups under the constants of
// touched (ascending, distinct) rewritten: each loses the IDs rem pairs
// with it and gains those add pairs with it (pairs packed constant<<32
// | ID, ascending). The base is shared; the delta is the receiver's with
// the rewritten groups merged in — all of them carved from one buffer —
// or, once its entries would outgrow 1/foldDiv of the base's,
// everything is folded into a fresh base. A write thus costs the
// groups it touches, whatever the column's size.
func (p *colPosting) withDelta(touched []sym.ID, rem, add []uint64) *colPosting {
	nd := len(p.dvals)
	size := len(add)
	entries := 0 // delta entries after this write, bounded
	for _, g := range p.dgroups {
		entries += len(g)
	}
	for _, v := range touched {
		if _, replaced := slices.BinarySearch(p.dvals, v); !replaced {
			nd++
		}
		size += len(p.lookup(v))
	}
	entries += size
	// rewrite appends the new group under v to buf: the old group minus
	// the removed IDs, merged with the added ones (both ascending).
	rewrite := func(buf []int32, v sym.ID) []int32 {
		for _, ci := range p.lookup(v) {
			for len(add) > 0 && sym.ID(add[0]>>32) == v && int32(uint32(add[0])) < ci {
				buf, add = append(buf, int32(uint32(add[0]))), add[1:]
			}
			for len(rem) > 0 && (sym.ID(rem[0]>>32) < v || (sym.ID(rem[0]>>32) == v && int32(uint32(rem[0])) < ci)) {
				rem = rem[1:]
			}
			if len(rem) > 0 && rem[0] == uint64(v)<<32|uint64(ci) {
				continue
			}
			buf = append(buf, ci)
		}
		for ; len(add) > 0 && sym.ID(add[0]>>32) == v; add = add[1:] {
			buf = append(buf, int32(uint32(add[0])))
		}
		return buf
	}
	if foldDiv*entries > len(p.comps) {
		pairs := make([]uint64, 0, len(p.comps)+size)
		emit := func(v sym.ID, group []int32) {
			for _, ci := range group {
				pairs = append(pairs, uint64(v)<<32|uint64(ci))
			}
		}
		t := 0
		var buf []int32
		for _, v := range p.vals {
			for ; t < len(touched) && touched[t] < v; t++ {
				buf = rewrite(buf[:0], touched[t])
				emit(touched[t], buf)
			}
			if t < len(touched) && touched[t] == v {
				continue // rewritten when t moves past it
			}
			emit(v, p.lookup(v))
		}
		for ; t < len(touched); t++ {
			buf = rewrite(buf[:0], touched[t])
			emit(touched[t], buf)
		}
		// Constants only the delta posts, untouched by this write.
		for j, v := range p.dvals {
			_, inBase := slices.BinarySearch(p.vals, v)
			_, isTouched := slices.BinarySearch(touched, v)
			if !inBase && !isTouched {
				emit(v, p.dgroups[j])
			}
		}
		folded := newColPosting(pairs)
		return &folded
	}
	out := &colPosting{vals: p.vals, off: p.off, comps: p.comps,
		dvals:   make([]sym.ID, 0, nd),
		dgroups: make([][]int32, 0, nd)}
	flat := make([]int32, 0, size)
	ends := make([]int, 0, len(touched)) // per touched constant: its group's end in flat
	for _, v := range touched {
		flat = rewrite(flat, v)
		ends = append(ends, len(flat))
	}
	i, start := 0, 0
	for k, v := range touched {
		for ; i < len(p.dvals) && p.dvals[i] < v; i++ {
			out.dvals, out.dgroups = append(out.dvals, p.dvals[i]), append(out.dgroups, p.dgroups[i])
		}
		if i < len(p.dvals) && p.dvals[i] == v {
			i++
		}
		out.dvals, out.dgroups = append(out.dvals, v), append(out.dgroups, flat[start:ends[k]:ends[k]])
		start = ends[k]
	}
	out.dvals = append(out.dvals, p.dvals[i:]...)
	out.dgroups = append(out.dgroups, p.dgroups[i:]...)
	return out
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
// lists and each template relation's owner column. Column postings are
// left to column.
func (w *WSD) buildPostings() *postings {
	p := &postings{rels: make([]relPostings, len(w.schema))}
	lists := make([][]int32, len(w.schema))
	w.comps.each(func(ci int, c *component) bool {
		for _, alt := range c.alts {
			for _, id := range alt {
				ri := w.fact(id).rel
				if n := len(lists[ri]); n == 0 || lists[ri][n-1] != int32(ci) {
					lists[ri] = append(lists[ri], int32(ci))
				}
			}
		}
		return true
	})
	for ri, r := range w.schema {
		rp := &p.rels[ri]
		rp.comps = listOf(slices.Clip(lists[ri]))
		both := make([]atomic.Pointer[colPosting], 2*r.Arity)
		rp.cols, rp.tmpls = both[:r.Arity:r.Arity], both[r.Arity:]
		rp.ownerCol = w.ownerColumn(ri)
	}
	return p
}

// ownerColumn picks relation ri's owner column (bucketColumn over its
// templates). It is 0 when the relation has no templates.
func (w *WSD) ownerColumn(ri int) int {
	tmpls := w.tmplsOf(int32(ri)).view()
	return bucketColumn(w.schema[ri].Arity, len(tmpls), func(k int) *attrComp { return w.comp(int(tmpls[k])).attr })
}

// bucketColumn picks, among the arity columns of n templates (tmpl(k)
// is the k-th), the one whose postings are shortest on average: entries
// per distinct constant, the first column on ties. Bucketing templates
// by it keeps a probe's candidate list short — a key column beats a
// low-cardinality one, whatever their order. It is 0 when n is 0.
func bucketColumn(arity, n int, tmpl func(k int) *attrComp) int {
	var vals []sym.ID
	best, bestEntries, bestDistinct := 0, 0, 0
	for j := range arity {
		vals = vals[:0]
		for k := range n {
			vals = append(vals, tmpl(k).cells[j]...)
		}
		slices.Sort(vals)
		distinct := len(slices.Compact(vals))
		if j == 0 || len(vals)*bestDistinct < bestEntries*distinct {
			best, bestEntries, bestDistinct = j, len(vals), distinct
		}
	}
	return best
}

// compChange is one component ID an install rewrites: the component
// it held (nil for a fresh ID) and the one it holds now (nil for a
// tombstone).
type compChange struct {
	id       int32
	old, new *component
}

// carryPostings derives the successor's index from the parent's across
// an incremental install, given the install's changes. Pieces the write
// does not touch are shared; a touched relation list takes the net
// delta, and a touched built column rewrites the groups of the
// constants whose postings the changes alter (withDelta): an ID that
// keeps a constant across the change leaves its group alone. Columns
// the parent never built stay unbuilt. ownerCol is recomputed only for
// the relations whose templates changed. A nil parent index carries
// nothing: the successor builds its own on first use.
func (w *WSD) carryPostings(parent *postings, changes []compChange) *postings {
	if parent == nil {
		return nil
	}
	p := &postings{rels: make([]relPostings, len(parent.rels))}
	facts := 0 // bounds the constants one column of the changed components holds
	for _, ch := range changes {
		for _, c := range [2]*component{ch.old, ch.new} {
			if c == nil {
				continue
			}
			if a := c.attr; a != nil {
				for _, cell := range a.cells {
					facts += len(cell)
				}
			}
			for _, alt := range c.alts {
				facts += len(alt)
			}
		}
	}
	rem := make([]uint64, 0, facts)
	add := make([]uint64, 0, facts)
	vals := make([]sym.ID, 0, facts)
	var remIDs, addIDs []int32
	for ri := range p.rels {
		prp, rp := &parent.rels[ri], &p.rels[ri]
		rel := int32(ri)
		tmplsChanged, compsChanged := false, false
		remIDs, addIDs = remIDs[:0], addIDs[:0]
		for _, ch := range changes {
			was, is := w.tupleMentions(ch.old, rel), w.tupleMentions(ch.new, rel)
			compsChanged = compsChanged || was || is
			switch {
			case was && !is:
				remIDs = append(remIDs, ch.id)
			case is && !was:
				addIDs = append(addIDs, ch.id)
			}
			tmplsChanged = tmplsChanged || templateOf(ch.old, rel) || templateOf(ch.new, rel)
		}
		rp.comps = prp.comps.with(remIDs, addIDs)
		rp.ownerCol = prp.ownerCol
		if tmplsChanged {
			rp.ownerCol = w.ownerColumn(ri)
		}
		n := len(prp.cols)
		both := make([]atomic.Pointer[colPosting], 2*n)
		rp.cols, rp.tmpls = both[:n:n], both[n:]
		for j := range prp.cols {
			for _, tmpl := range [2]bool{false, true} {
				src, dst, changed := &prp.cols[j], &rp.cols[j], compsChanged
				if tmpl {
					src, dst, changed = &prp.tmpls[j], &rp.tmpls[j], tmplsChanged
				}
				c := src.Load()
				if c == nil || !changed {
					dst.Store(c)
					continue
				}
				rem, add = rem[:0], add[:0]
				for _, ch := range changes {
					rem = w.postedPairs(rem, ch.old, rel, j, tmpl, ch.id)
					add = w.postedPairs(add, ch.new, rel, j, tmpl, ch.id)
				}
				slices.Sort(rem)
				slices.Sort(add)
				rem, add = cancelCommon(slices.Compact(rem), slices.Compact(add))
				vals = vals[:0]
				for _, pr := range rem {
					vals = append(vals, sym.ID(pr>>32))
				}
				for _, pr := range add {
					vals = append(vals, sym.ID(pr>>32))
				}
				if len(vals) == 0 {
					dst.Store(c)
					continue
				}
				slices.Sort(vals)
				dst.Store(c.withDelta(slices.Compact(vals), rem, add))
			}
		}
	}
	return p
}

// postedPairs appends the (constant, id) pairs component c posts in
// column j of relation rel — tuple-level facts, or with tmpl set the
// template's cell — packed constant<<32 | id.
func (w *WSD) postedPairs(dst []uint64, c *component, rel int32, j int, tmpl bool, id int32) []uint64 {
	if c == nil {
		return dst
	}
	if tmpl {
		if a := c.attr; a != nil && a.rel == rel {
			for _, v := range a.cells[j] {
				dst = append(dst, uint64(v)<<32|uint64(id))
			}
		}
		return dst
	}
	for _, alt := range c.alts {
		for _, f := range alt {
			if sf := w.fact(f); sf.rel == rel {
				dst = append(dst, uint64(sf.tuple[j])<<32|uint64(id))
			}
		}
	}
	return dst
}

// cancelCommon drops the elements the two ascending lists share from
// both, in place.
func cancelCommon(a, b []uint64) ([]uint64, []uint64) {
	i, j, na, nb := 0, 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			a[na] = a[i]
			na, i = na+1, i+1
		default:
			b[nb] = b[j]
			nb, j = nb+1, j+1
		}
	}
	na += copy(a[na:], a[i:])
	nb += copy(b[nb:], b[j:])
	return a[:na], b[:nb]
}

// tupleMentions reports whether c is a tuple-level component with a
// fact of relation ri (false for nil).
func (w *WSD) tupleMentions(c *component, ri int32) bool {
	return c != nil && c.attr == nil && w.mentions(c, ri)
}

// templateOf reports whether c is a template over relation ri.
func templateOf(c *component, ri int32) bool {
	return c != nil && c.attr != nil && c.attr.rel == ri
}

// mentions reports whether a tuple-level component has a fact of
// relation ri in some alternative.
func (w *WSD) mentions(c *component, ri int32) bool {
	for _, alt := range c.alts {
		for _, id := range alt {
			if w.fact(id).rel == ri {
				return true
			}
		}
	}
	return false
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
		for _, ci := range w.tmplsOf(int32(ri)).view() {
			for _, v := range w.comp(int(ci)).attr.cells[j] {
				pairs = append(pairs, uint64(v)<<32|uint64(ci))
			}
		}
	} else {
		for _, ci := range rp.comps.view() {
			for _, alt := range w.comp(int(ci)).alts {
				for _, id := range alt {
					if f := w.fact(id); f.rel == int32(ri) {
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

// RelComponents returns the IDs of the tuple-level components whose
// support mentions relation ri (a schema position), ascending. The
// slice may be the decomposition's own; callers must not mutate it.
func (w *WSD) RelComponents(ri int) []int32 {
	w.ensure()
	return w.postingIndex().rels[ri].comps.view()
}

// RelTemplates returns the IDs of the attribute-level components over
// relation ri, ascending. The slice may be the decomposition's own;
// callers must not mutate it.
func (w *WSD) RelTemplates(ri int) []int32 {
	w.ensure()
	return w.tmplsOf(int32(ri)).view()
}

// HasTemplates reports whether relation ri has an attribute-level
// component, in O(1).
func (w *WSD) HasTemplates(ri int) bool {
	w.ensure()
	return w.tmplsOf(int32(ri)).len() > 0
}

// UnitCount returns the number of choice axes: one per tuple-level
// component and one per open (two or more values) template slot. It is
// carried across updates like the world count, so reading it is O(1).
func (w *WSD) UnitCount() int64 {
	w.ensure()
	return w.units
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
	return w.altFacts
}

// AppendAltTuples appends the tuples of relation ri in alternative ai
// of tuple-level component ci to dst, in fact-ID order, and returns the
// extended slice. The tuples are the decomposition's interned storage,
// shared, not copied: callers must not mutate them.
func (w *WSD) AppendAltTuples(dst []sym.Tuple, ci, ai, ri int) []sym.Tuple {
	w.ensure()
	for _, id := range w.comp(ci).alts[ai] {
		if f := w.fact(id); f.rel == int32(ri) {
			dst = append(dst, f.tuple)
		}
	}
	return dst
}
