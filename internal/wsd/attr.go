// Attribute-level components: the second factoring axis of a
// decomposition. Where a tuple-level component lists whole-fact
// alternatives explicitly, an attribute-level component stores one fact
// template over a relation together with a per-slot alternative list,
// and its tuple-level alternatives are the cross product of the slot
// choices — materialized lazily, never stored. A template R(a {1|2|3} b)
// denotes the three singleton alternatives {R(a 1 b)}, {R(a 2 b)},
// {R(a 3 b)}; a template with several open slots denotes the full
// product of its slot domains in Π|slotᵢ| alternatives held in Σ|slotᵢ|
// symbols.
//
// This is the attribute-level refinement of the world-set-decomposition
// papers (Antova, Koch & Olteanu, "10^(10^6) Worlds and Beyond";
// Olteanu, Koch & Antova, "World-set decompositions: expressiveness and
// efficient algorithms"): per-field independence is the common shape of
// real uncertain data, and factoring it at the slot level is
// exponentially more succinct than tuple-level alternatives while every
// decision procedure (Count, MEMB, POSS, CERT, Sample) stays polynomial
// in the decomposition size. Normalize converts tuple-level components
// into this form whenever a counting argument certifies that the
// alternative set is exactly a per-slot product (the vertical split,
// see normalize.go).
//
// Invariants after Normalize: every cell's value list is sorted
// (sym.Compare order) and duplicate-free, at least one cell has two or
// more values (all-fixed templates fold into the certain component),
// and the template's instantiation set is disjoint from every other
// component's support. An attribute-level component contributes exactly
// one fact to every world.
package wsd

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"pw/internal/sym"
)

// attrComp is the attribute-level component body: one fact template over
// schema relation rel whose slot i ranges over cells[i].
type attrComp struct {
	rel   int32
	cells [][]sym.ID
}

// clone deep-copies the template.
func (a *attrComp) clone() *attrComp {
	c := &attrComp{rel: a.rel, cells: make([][]sym.ID, len(a.cells))}
	for i, cell := range a.cells {
		c.cells[i] = append([]sym.ID(nil), cell...)
	}
	return c
}

// countInt returns the number of alternatives (the product of the slot
// domain sizes). ok is false when the product overflows int, in which
// case the count saturates at math.MaxInt — callers that enumerate
// alternatives by index must check ok, while decision procedures use
// count (exact, big.Int) instead.
func (a *attrComp) countInt() (n int, ok bool) {
	n = 1
	for _, cell := range a.cells {
		if len(cell) == 0 {
			return 0, true
		}
		if n > math.MaxInt/len(cell) {
			return math.MaxInt, false
		}
		n *= len(cell)
	}
	return n, true
}

// count returns the exact alternative count as a big integer.
func (a *attrComp) count() *big.Int {
	n := big.NewInt(1)
	for _, cell := range a.cells {
		n.Mul(n, big.NewInt(int64(len(cell))))
	}
	return n
}

// contains reports whether the tuple is one of the template's
// instantiations: a positionwise slot-domain membership test, no
// expansion.
func (a *attrComp) contains(t sym.Tuple) bool {
	if len(t) != len(a.cells) {
		return false
	}
	for i, id := range t {
		if !cellHas(a.cells[i], id) {
			return false
		}
	}
	return true
}

// cellHas reports membership of id in a sorted cell value list.
func cellHas(cell []sym.ID, id sym.ID) bool {
	if len(cell) == 1 {
		return cell[0] == id
	}
	j := sort.Search(len(cell), func(k int) bool { return sym.Compare(cell[k], id) >= 0 })
	return j < len(cell) && cell[j] == id
}

// tupleAt materializes the alternative with index ai (odometer order,
// last slot fastest — matching Each's enumeration) into a fresh tuple.
// ai must be in range; the caller has checked countInt.
func (a *attrComp) tupleAt(ai int) sym.Tuple {
	t := make(sym.Tuple, len(a.cells))
	for i := len(a.cells) - 1; i >= 0; i-- {
		cell := a.cells[i]
		t[i] = cell[ai%len(cell)]
		ai /= len(cell)
	}
	return t
}

// minTuple returns the template's smallest instantiation (cells are
// sorted, so it is the tuple of first values) — the canonical ordering
// key of the component.
func (a *attrComp) minTuple() sym.Tuple {
	t := make(sym.Tuple, len(a.cells))
	for i, cell := range a.cells {
		t[i] = cell[0]
	}
	return t
}

// sortDedupCell sorts a slot's value list by symbol order and removes
// duplicates in place.
func sortDedupCell(cell []sym.ID) []sym.ID {
	sort.Slice(cell, func(i, j int) bool { return sym.Compare(cell[i], cell[j]) < 0 })
	out := cell[:0]
	for i, id := range cell {
		if i == 0 || id != cell[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// AddTemplateComponent appends an attribute-level component: one fact
// template over relName whose slot i ranges over cells[i]. The
// component's alternatives are the cross product of the slot choices,
// each a singleton fact-set — every world contains exactly one
// instantiation of the template. A slot with a single value is a fixed
// attribute; a slot with no values makes the component offer no
// alternative at all, collapsing the decomposition to the empty world
// set (mirroring AddComponent with zero alternatives).
//
// Like AddComponent, this leaves the decomposition denormalized:
// Normalize deduplicates slot values, merges the template with any
// component whose support overlaps its instantiation set, and folds
// all-fixed templates into the certain component.
//
// Slot values must be plain constants — non-empty, no whitespace, none
// of the slot grammar's reserved characters — so the printed form
// (String / PrintWSD) always re-parses to the same world set; a value
// like "hi|lo" would print as a braced list of two values and silently
// denote a different set.
//
// AddTemplateComponent is the boundary form of AddTemplateCells: it
// resolves the relation name and interns the values, then builds
// through the same validating constructor.
func (w *WSD) AddTemplateComponent(relName string, cells ...[]string) error {
	ri, ok := w.RelIndex(relName)
	if !ok {
		return fmt.Errorf("wsd: template references unknown relation %s", relName)
	}
	ids := make([][]sym.ID, len(cells))
	for i, cell := range cells {
		ids[i] = make([]sym.ID, len(cell))
		for j, v := range cell {
			ids[i][j] = sym.Const(v)
		}
	}
	return w.addTemplate(ri, ids)
}

// AddTemplateCells is AddTemplateComponent over interned values: the
// template's relation is schema position ri and slot i ranges over
// cells[i]. A relation index outside the schema, a slot count other
// than the arity, and a slot value that is not a plain constant are
// errors and leave the decomposition unchanged. The cells are copied.
func (w *WSD) AddTemplateCells(ri int, cells ...[]sym.ID) error {
	own := make([][]sym.ID, len(cells))
	for i, cell := range cells {
		own[i] = slices.Clone(cell)
	}
	return w.addTemplate(ri, own)
}

// addTemplate validates a template and appends it, keeping cells (the
// caller hands them over).
func (w *WSD) addTemplate(ri int, cells [][]sym.ID) error {
	if ri < 0 || ri >= len(w.schema) {
		return fmt.Errorf("wsd: template relation index %d outside the schema's %d relations", ri, len(w.schema))
	}
	r := w.schema[ri]
	if len(cells) != r.Arity {
		return fmt.Errorf("wsd: template for %s has %d slots, relation expects %d",
			r.Name, len(cells), r.Arity)
	}
	for i, cell := range cells {
		for _, id := range cell {
			if id.IsVar() { // a variable, or the None sentinel
				return fmt.Errorf("wsd: template for %s: slot %d holds a non-constant symbol", r.Name, i)
			}
			if !plainCellValue(id.Name()) {
				return fmt.Errorf("wsd: template for %s: slot %d value %q is empty or uses a reserved character of the slot grammar", r.Name, i, id.Name())
			}
		}
	}
	w.addPending(component{attr: &attrComp{rel: int32(ri), cells: cells}})
	return nil
}

// templateString renders an attribute-level component body in the .pw
// tmpl syntax: Rel(v {a|b} w).
func (w *WSD) templateString(a *attrComp) string {
	var b strings.Builder
	b.WriteString(w.schema[a.rel].Name)
	b.WriteString("(")
	for i, cell := range a.cells {
		if i > 0 {
			b.WriteString(" ")
		}
		if len(cell) == 1 {
			b.WriteString(cell[0].Name())
			continue
		}
		b.WriteString("{")
		for k, id := range cell {
			if k > 0 {
				b.WriteString("|")
			}
			b.WriteString(id.Name())
		}
		b.WriteString("}")
	}
	b.WriteString(")")
	return b.String()
}

// expandAttr materializes an attribute-level component into tuple-level
// alternatives, interning every instantiation into the fact table. Used
// only when normalization must merge the template with an overlapping
// component; bounded by MaxMergeAlts like every other product
// materialization.
func (w *WSD) expandAttr(a *attrComp) ([][]int32, error) {
	n, ok := a.countInt()
	if !ok || n > MaxMergeAlts {
		return nil, fmt.Errorf("wsd: expanding an attribute-level component of %s alternatives (limit %d); the decomposition is too entangled to normalize",
			a.count(), MaxMergeAlts)
	}
	alts := make([][]int32, n)
	for ai := 0; ai < n; ai++ {
		alts[ai] = []int32{w.intern(a.rel, a.tupleAt(ai))}
	}
	return alts, nil
}

// attrOverlap reports whether two templates can instantiate a common
// fact: same relation and pairwise-intersecting slot domains.
func attrOverlap(a, b *attrComp) bool {
	if a.rel != b.rel || len(a.cells) != len(b.cells) {
		return false
	}
	for i := range a.cells {
		if !cellsIntersect(a.cells[i], b.cells[i]) {
			return false
		}
	}
	return true
}

// cellsIntersect reports whether two sorted value lists share a value.
func cellsIntersect(a, b []sym.ID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := sym.Compare(a[i], b[j]); {
		case c == 0:
			return true
		case c < 0:
			i++
		default:
			j++
		}
	}
	return false
}

// plainCellValue reports whether a constant name can round-trip through
// the .pw tmpl syntax: non-empty, no whitespace, and none of the
// reserved characters of the slot grammar. The vertical split declines
// to factor components whose values would not print parseably, so
// String stays closed under ParseWSD whenever the tuple form was.
func plainCellValue(name string) bool {
	if name == "" || name[0] == '?' || name[0] == '#' {
		return false
	}
	return !strings.ContainsAny(name, "{}|,() \t\r\n")
}
