package wsd

import (
	"fmt"
	"math/big"
	"slices"

	"pw/internal/sym"
)

// CheckDerivedState compares the decomposition's derived state with a
// from-scratch derivation over a clone (which keeps the component IDs):
// factComp, certain, the certain component, the template lists, the
// choice-axis and fact totals and the hole count against rederive (the
// derivation every full Normalize runs), the display order against a
// fresh sort, and every posting-index piece the decomposition holds —
// the per-relation lists, the owner columns and each built column
// posting, base and delta read together — against a fresh build. It
// returns the first difference, or nil.
func (w *WSD) CheckDerivedState() error {
	ref := w.Clone()
	ref.rederive()
	ref.dense = w.dense
	switch {
	case !slices.Equal(w.factState.slice(), ref.factState.slice()):
		return fmt.Errorf("fact states %v, rebuild %v", w.factState.slice(), ref.factState.slice())
	case w.certainComp != ref.certainComp:
		return fmt.Errorf("certain component %d, rebuild %d", w.certainComp, ref.certainComp)
	case w.live != ref.live:
		return fmt.Errorf("live components %d, rebuild %d", w.live, ref.live)
	case w.units != ref.units:
		return fmt.Errorf("choice axes %d, rebuild %d", w.units, ref.units)
	case w.altFacts != ref.altFacts:
		return fmt.Errorf("altFacts %d, rebuild %d", w.altFacts, ref.altFacts)
	case w.holes != ref.holes:
		return fmt.Errorf("holes %d, rebuild %d", w.holes, ref.holes)
	case !slices.Equal(w.free, ref.free):
		return fmt.Errorf("tombstones %v, rebuild %v", w.free, ref.free)
	case !slices.Equal(w.displayOrder(), ref.displayOrder()):
		return fmt.Errorf("display order %v, rebuild %v", w.displayOrder(), ref.displayOrder())
	}
	for ri := range w.schema {
		if got, want := w.tmplsOf(int32(ri)).view(), ref.tmplsOf(int32(ri)).view(); !slices.Equal(got, want) {
			return fmt.Errorf("relation %d templates %v, rebuild %v", ri, got, want)
		}
	}
	p := w.post.Load()
	if p == nil {
		return nil
	}
	rp := ref.buildPostings()
	for ri := range p.rels {
		got, want := &p.rels[ri], &rp.rels[ri]
		if !slices.Equal(got.comps.view(), want.comps.view()) {
			return fmt.Errorf("relation %d components %v, rebuild %v", ri, got.comps.view(), want.comps.view())
		}
		if got.ownerCol != want.ownerCol {
			return fmt.Errorf("relation %d owner column %d, rebuild %d", ri, got.ownerCol, want.ownerCol)
		}
		for j := range got.cols {
			for _, tmpl := range []bool{false, true} {
				slot := &got.cols[j]
				if tmpl {
					slot = &got.tmpls[j]
				}
				c := slot.Load()
				if c == nil {
					continue
				}
				if err := c.equal(ref.column(rp, ri, j, tmpl)); err != nil {
					return fmt.Errorf("relation %d column %d (templates %v): %v", ri, j, tmpl, err)
				}
			}
		}
	}
	return nil
}

// equal reports the first difference between the lookups of two column
// postings, over every constant either one posts.
func (p *colPosting) equal(q *colPosting) error {
	vals := slices.Concat(p.vals, p.dvals, q.vals, q.dvals)
	slices.Sort(vals)
	for _, v := range slices.Compact(vals) {
		if got, want := p.lookup(v), q.lookup(v); !slices.Equal(got, want) {
			return fmt.Errorf("constant %s: components %v, rebuild %v", sym.ID(v).Name(), got, want)
		}
	}
	return nil
}

// BuildAllPostings builds every column posting of the current version,
// tuple-level and template side.
func (w *WSD) BuildAllPostings() {
	w.ensure()
	p := w.postingIndex()
	for ri, r := range w.schema {
		for j := range r.Arity {
			w.column(p, ri, j, false)
			w.column(p, ri, j, true)
		}
	}
}

// BuiltColumns counts the column postings the current version holds
// (0 when it holds no index).
func (w *WSD) BuiltColumns() int {
	p := w.post.Load()
	if p == nil {
		return 0
	}
	n := 0
	for ri := range p.rels {
		for j := range p.rels[ri].cols {
			if p.rels[ri].cols[j].Load() != nil {
				n++
			}
			if p.rels[ri].tmpls[j].Load() != nil {
				n++
			}
		}
	}
	return n
}

// SharesPostings reports whether two versions hold one posting index.
func SharesPostings(a, b *WSD) bool {
	p := a.post.Load()
	return p != nil && p == b.post.Load()
}

// MemoCount returns the world count memoized on w — carried across an
// update or stored by a first Count — without computing one; nil when
// none is held.
func MemoCount(w *WSD) *big.Int { return w.count.Load() }

// DeltaEntries counts the entries w holds in deltas rather than bases:
// the removed and added IDs of the template and relation lists and the
// replacement-group entries of every built column posting. A fold shows
// as a drop.
func DeltaEntries(w *WSD) int {
	n := 0
	list := func(l *idList) { n += len(l.gone) + len(l.added) }
	for ri := range w.attrByRel {
		list(&w.attrByRel[ri])
	}
	p := w.post.Load()
	if p == nil {
		return n
	}
	for ri := range p.rels {
		list(&p.rels[ri].comps)
		for j := range p.rels[ri].cols {
			for _, c := range []*colPosting{p.rels[ri].cols[j].Load(), p.rels[ri].tmpls[j].Load()} {
				if c != nil {
					for _, g := range c.dgroups {
						n += len(g)
					}
				}
			}
		}
	}
	return n
}

// OverlapClasses returns the classes of pending component indices that
// Normalize's overlap closure finds, after canonicalizing the template
// cells as Normalize's first step does. Every template must have two or
// more instantiations (Normalize rewrites the others to facts first).
func (w *WSD) OverlapClasses() [][]int32 {
	for _, c := range w.pending {
		if a := c.attr; a != nil {
			for j := range a.cells {
				a.cells[j] = sortDedupCell(a.cells[j])
			}
		}
	}
	return w.overlapClasses()
}

// scanTargets is rewriteTargets by a scan of every stored fact and
// every template of the relation, independent of the posting index: the
// reference the index lookup is checked against.
func (w *WSD) scanTargets(ri int32, pat symPattern) []int32 {
	matched := make(map[int32]bool)
	w.facts.each(func(id int, f *storedFact) bool {
		if ci := w.compOf(int32(id)); ci >= 0 && f.rel == ri && pat.matches(f.tuple) {
			matched[ci] = true
		}
		return true
	})
	for _, ci := range w.tmplsOf(ri).view() {
		if pat.matchesTemplate(w.comp(int(ci)).attr) {
			matched[ci] = true
		}
	}
	out := make([]int32, 0, len(matched))
	for ci := range matched {
		out = append(out, ci)
	}
	slices.Sort(out)
	return out
}

// RewriteTargets returns the components a delete or update pattern
// over relation relName targets, found through the posting index
// (rewriteTargets) and by a scan (scanTargets); live is false when a
// constant of the pattern was never interned, so nothing can match.
func (w *WSD) RewriteTargets(relName string, args []string) (index, scan []int32, live bool) {
	w.ensure()
	pat, live := resolveArgsPattern(args)
	if !live || w.empty {
		return nil, nil, live
	}
	ri := int32(w.schemaIdx[relName])
	return w.rewriteTargets(ri, pat), w.scanTargets(ri, pat), true
}
