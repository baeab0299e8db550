package wsd

import (
	"fmt"
	"math/big"
	"reflect"
	"slices"
)

// CheckDerivedState compares the decomposition's derived state with a
// from-scratch derivation over a clone: factComp, certain, attrByRel
// and the hole count against buildIndexes (the derivation every full
// Normalize runs), and every posting-index piece the decomposition
// holds — the per-relation lists, the fact total, the owner columns and
// each built column posting — against a fresh build. It returns the
// first difference, or nil.
func (w *WSD) CheckDerivedState() error {
	ref := w.Clone()
	ref.buildIndexes()
	switch {
	case !slices.Equal(w.factComp, ref.factComp):
		return fmt.Errorf("factComp %v, rebuild %v", w.factComp, ref.factComp)
	case !slices.Equal(w.certain, ref.certain):
		return fmt.Errorf("certain %v, rebuild %v", w.certain, ref.certain)
	case !reflect.DeepEqual(w.attrByRel, ref.attrByRel):
		return fmt.Errorf("attrByRel %v, rebuild %v", w.attrByRel, ref.attrByRel)
	}
	holes := 0
	for _, ci := range ref.factComp {
		if ci < 0 {
			holes++
		}
	}
	if w.holes != holes {
		return fmt.Errorf("holes %d, rebuild %d", w.holes, holes)
	}
	p := w.post.Load()
	if p == nil {
		return nil
	}
	rp := ref.buildPostings()
	if p.altFacts != rp.altFacts {
		return fmt.Errorf("altFacts %d, rebuild %d", p.altFacts, rp.altFacts)
	}
	for ri := range p.rels {
		got, want := &p.rels[ri], &rp.rels[ri]
		if !slices.Equal(got.comps, want.comps) {
			return fmt.Errorf("relation %d components %v, rebuild %v", ri, got.comps, want.comps)
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

// equal reports the first difference between two column postings,
// layout included: a key-like posting stores no offsets.
func (p *colPosting) equal(q *colPosting) error {
	switch {
	case !slices.Equal(p.vals, q.vals):
		return fmt.Errorf("constants %v, rebuild %v", p.vals, q.vals)
	case (p.off == nil) != (q.off == nil) || !slices.Equal(p.off, q.off):
		return fmt.Errorf("offsets %v, rebuild %v", p.off, q.off)
	case !slices.Equal(p.comps, q.comps):
		return fmt.Errorf("components %v, rebuild %v", p.comps, q.comps)
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
