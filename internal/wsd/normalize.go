// Product normalization: the rewriting that establishes the WSD
// invariants every query method relies on.
//
//  1. alternatives within a component are pairwise distinct;
//  2. the fact supports of distinct components are pairwise disjoint
//     (an attribute-level component's support is its template's
//     instantiation set, never materialized);
//  3. no component is the trivial {∅} (it contributes nothing);
//  4. components are factored along both axes as far as the splitters
//     reach: the trace/block splitter peels independent groups off a
//     component one at a time, and no tuple-level component whose
//     alternatives form an exact per-slot product stays unfactored —
//     the vertical split rewrites it into an attribute-level template
//     (tryVerticalSplit);
//  5. facts, alternatives and components are in canonical order, so two
//     normalizations of the same world set print identically.
//
// (2) makes the choice-vector → world map injective, so |rep| is exactly
// the product of component sizes. (4) is obtained by verified counting
// arguments only: the horizontal trace/block splitter factors a
// component exactly when the distinct-projection counts multiply to the
// total, and the vertical splitter factors a component into per-slot
// alternative lists exactly when Π|slot values| equals the alternative
// count — either certificate proves the rewrite preserves the
// represented world set fact-for-fact. The peel is greedy, so (4) is
// not maximal factoring: a component made of two groups that are
// independent of each other but each jointly dependent inside (two
// XOR-like groups) is never split. What holds is that the factoring
// is a function of each overlap class's merged alternatives, so the two
// routes into the local step (localStep) — Normalize over every
// component, an update over the components it touches — print the
// same bytes per overlap class.
package wsd

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pw/internal/obs"
	"pw/internal/sym"
	"pw/internal/unionfind"
)

// MaxMergeAlts bounds the alternative count of a merged component: merging
// k dependent components multiplies their alternative counts, and a
// decomposition whose components are all entangled degenerates to an
// explicit world list. Beyond this bound Normalize reports an error
// instead of materializing the product.
const MaxMergeAlts = 1 << 20

// Normalize rewrites the decomposition into canonical product-normal
// form (see the package comment at the top of this file). It is
// idempotent and deterministic; the query methods call it lazily after
// mutations. The only error is the MaxMergeAlts blow-up guard.
func (w *WSD) Normalize() error {
	if w.normalized {
		return nil
	}
	if w.empty {
		w.clearToEmpty()
		return nil
	}
	// A snapshot clone (update.go) shares alternative slices and the
	// fact table with its parent; the rewrites below mutate both, so
	// deep-copy first — the parent must stay a valid snapshot.
	w.unshareAll()

	// (1) Deduplicate alternatives within each tuple-level component and
	// canonicalize attribute-level slot value lists (sorted, distinct —
	// the template's cross product is then automatically duplicate-free).
	// A component with no alternatives offers no choice at all — for a
	// template, an empty slot domain — so the product is empty. A
	// template with one instantiation (every cell fixed, or no cell) is a
	// certain fact and continues as one.
	for i := range w.pending {
		c := &w.pending[i]
		n := len(c.alts)
		if a := c.attr; a != nil {
			for j := range a.cells {
				a.cells[j] = sortDedupCell(a.cells[j])
			}
			if n, _ = a.countInt(); n == 1 {
				*c = component{alts: [][]int32{{w.intern(a.rel, a.tupleAt(0))}}}
			}
		} else {
			c.alts = dedupAlts(c.alts)
		}
		if n == 0 {
			w.clearToEmpty()
			return nil
		}
	}

	// (2)–(4) The local step over every pending component as one batch:
	// the classes of overlapping supports merged, every result split
	// horizontally and vertically, and the certain facts folded into one
	// component, so they live in one place however the WSD was built.
	comps, certain, err := w.localStep(w.pending, w.overlapClasses())
	if err != nil {
		return err
	}
	if len(certain) > 0 {
		comps = append(comps, component{alts: [][]int32{sortDedupIDs(certain)}})
	}
	w.pending = comps

	// (5) Canonical rebuild: fact table in display order, alternatives
	// sorted, components ordered by smallest support fact.
	w.canonicalize()
	w.buildIndexes()
	w.normalized = true
	// The canonical rebuild dropped unused facts and restored display
	// order, clearing any incremental-update residue (see update.go).
	w.dense = true
	return nil
}

// clearToEmpty rewrites w into the canonical representation of ∅.
func (w *WSD) clearToEmpty() {
	w.pending = nil
	w.comps = chunked[component]{}
	w.live = 0
	w.facts = chunked[storedFact]{}
	w.factIndex = factSet{}
	w.factDelta = factSet{}
	w.factState = chunked[factState]{}
	w.certainComp = -1
	w.attrByRel = nil
	w.free = nil
	w.units, w.altFacts = 0, 0
	w.dense = true
	w.order.Store(nil)
	w.post.Store(nil)
	w.count.Store(nil)
	w.empty = true
	w.normalized = true
	w.factsShared = false
	w.indexShared = false
	w.compsShared = false
	w.holes = 0
	w.factsLoose = false
}

// unshareAll deep-copies everything a snapshot clone shares with its
// parent (see update.go) so in-place rewrites cannot reach the parent.
func (w *WSD) unshareAll() {
	w.cowFacts()
	if !w.compsShared {
		return
	}
	for i := range w.pending {
		w.pending[i] = w.pending[i].clone()
		w.pending[i].altIndex = nil
	}
	w.compsShared = false
	w.obsCost.Add(obs.UpdateCOWUnshares, 1)
}

// dedupAlts removes duplicate alternatives (sorted ID lists) preserving
// first-occurrence order. It allocates one map, not one entry per
// alternative: a hash maps to the first kept alternative with it, and
// only a hash collision scans the kept ones.
func dedupAlts(alts [][]int32) [][]int32 {
	first := make(map[uint64]int, len(alts))
	out := alts[:0]
	for _, a := range alts {
		h := altHash(a)
		i, seen := first[h]
		if seen && (idsEqual(out[i], a) || slices.ContainsFunc(out, func(b []int32) bool { return idsEqual(b, a) })) {
			continue
		}
		if !seen {
			first[h] = len(out)
		}
		out = append(out, a)
	}
	return out
}

// overlapClasses partitions the pending components into the classes of
// the overlap relation's transitive closure (classesOf order): a
// union–find over component indices fed by an index built for this
// pass. A dense fact-owner array unions tuple-level components sharing
// a fact, and per relation the templates are bucketed by the values of
// one column (bucketColumn), a template under each value of its cell
// there. Two templates can share an instantiation only if their cells
// intersect in every column, so only pairs inside one bucket are tested
// (attrOverlap, positionwise — no product is materialized); a stored
// fact is tested (contains) only against the bucket of its own value.
// Both tests count as norm_overlap_tests.
func (w *WSD) overlapClasses() [][]int32 {
	uf := unionfind.NewDense(len(w.pending))
	owner := slices.Repeat([]int32{-1}, w.facts.len()) // fact ID → first component holding it, -1 for none
	tmpls := make([][]int32, len(w.schema))            // per relation: its templates' indices
	for ci := range w.pending {
		c := &w.pending[ci]
		if c.attr != nil {
			tmpls[c.attr.rel] = append(tmpls[c.attr.rel], int32(ci))
			continue
		}
		for _, alt := range c.alts {
			for _, f := range alt {
				if owner[f] >= 0 {
					uf.Union(owner[f], int32(ci))
				} else {
					owner[f] = int32(ci)
				}
			}
		}
	}
	tests := int64(0)
	buckets := make([]*colPosting, len(w.schema))
	cols := make([]int, len(w.schema))
	bucketed := false
	for ri, idx := range tmpls {
		if len(idx) == 0 {
			continue
		}
		j := bucketColumn(w.schema[ri].Arity, len(idx), func(k int) *attrComp { return w.pending[idx[k]].attr })
		var pairs []uint64
		for _, ci := range idx {
			for _, v := range w.pending[ci].attr.cells[j] {
				pairs = append(pairs, uint64(v)<<32|uint64(ci))
			}
		}
		p := newColPosting(pairs)
		buckets[ri], cols[ri], bucketed = &p, j, true
		// Template vs template: a shared instantiation.
		for g := range p.vals {
			group := p.group(g)
			for x, a := range group {
				for _, b := range group[x+1:] {
					if uf.Same(a, b) {
						continue
					}
					tests++
					if attrOverlap(w.pending[a].attr, w.pending[b].attr) {
						uf.Union(a, b)
					}
				}
			}
		}
	}
	// Template vs tuple-level: a stored fact the template can produce.
	for f, ci := range owner {
		if ci < 0 || !bucketed {
			continue
		}
		sf := w.fact(int32(f))
		if buckets[sf.rel] == nil {
			continue // no template of the fact's relation
		}
		for _, ai := range buckets[sf.rel].lookup(sf.tuple[cols[sf.rel]]) {
			if uf.Same(ai, ci) {
				continue
			}
			tests++
			if w.pending[ai].attr.contains(sf.tuple) {
				uf.Union(ai, ci)
			}
		}
	}
	w.obsCost.Add(obs.NormOverlapTests, tests)
	return classesOf(uf)
}

// classesOf lists the classes of uf, each ascending, ordered by their
// smallest node.
func classesOf(uf *unionfind.Dense) [][]int32 {
	at := slices.Repeat([]int32{-1}, uf.Len()) // class root → its position in out, -1 before it is seen
	var out [][]int32
	for i := range int32(uf.Len()) {
		r := uf.Find(i)
		if at[r] < 0 {
			at[r] = int32(len(out))
			out = append(out, nil)
		}
		out[at[r]] = append(out[at[r]], i)
	}
	return out
}

// localStep is the local normal-form step, the one route by which a
// batch of components whose overlap classes are known becomes normal
// form. Normalize runs it over every pending component, the incremental
// install (installIncremental) over an operation's replacement groups
// and the survivors they pull in. Each class of two or more is merged
// (mergeClass; a template in it expands to tuple level), and the
// result, or a tuple-level component alone in its class, split
// horizontally (splitAlts) and vertically (tryVerticalSplit); a
// template alone in its class is already factored and passes as it is.
// The single-alternative results are not returned as components: their
// facts are, unsorted, for the caller to fold into the one certain
// component. A class with no alternative makes the batch denote ∅: the
// step clears w (clearToEmpty) and returns nothing.
//
// Every tuple-level component of the batch must be duplicate-free, so
// a merge multiplies distinct lists only: the callers deduplicate their
// own components, and normalized survivors already are. One that can
// be alone in its class must be the caller's own.
func (w *WSD) localStep(batch []component, classes [][]int32) (comps []component, certain []int32, err error) {
	comps = make([]component, 0, len(batch))
	for _, members := range classes {
		var alts [][]int32
		if c := batch[members[0]]; len(members) == 1 {
			if c.attr != nil {
				comps = append(comps, c)
				continue
			}
			alts = c.alts
		} else {
			w.obsCost.Add(obs.NormComponentsMerged, int64(len(members)))
			alts, err = mergeClass(len(members), func(k int) ([][]int32, error) {
				if a := batch[members[k]].attr; a != nil {
					return w.expandAttr(a)
				}
				return batch[members[k]].alts, nil
			})
			if err != nil {
				return nil, nil, err
			}
		}
		if len(alts) == 0 {
			w.clearToEmpty()
			return nil, nil, nil
		}
		for _, sub := range splitAlts(alts) {
			c := w.tryVerticalSplit(component{alts: sub})
			if c.attr == nil && len(sub) == 1 {
				certain = append(certain, sub[0]...)
				w.obsCost.Add(obs.NormCertainFolds, 1)
				continue
			}
			comps = append(comps, c)
		}
	}
	return comps, certain, nil
}

// mergeClass is the merge of a class of k ≥ 2 dependent components:
// the cross product of the members' alternative lists, each joint
// alternative the sorted union of one alternative per member,
// duplicates removed. member(i) supplies the i-th list, expanding a
// template on demand; the product is checked against MaxMergeAlts
// before the next member is materialized.
func mergeClass(k int, member func(int) ([][]int32, error)) ([][]int32, error) {
	lists := make([][][]int32, k)
	product := 1
	for i := range lists {
		alts, err := member(i)
		if err != nil {
			return nil, err
		}
		lists[i] = alts
		product *= len(alts)
		if product > MaxMergeAlts {
			return nil, fmt.Errorf("wsd: merging %d dependent components needs %d+ alternatives (limit %d); the decomposition is too entangled to normalize",
				k, product, MaxMergeAlts)
		}
	}
	acc := [][]int32{nil}
	for _, alts := range lists {
		next := make([][]int32, 0, len(acc)*len(alts))
		for _, base := range acc {
			for _, alt := range alts {
				u := make([]int32, 0, len(base)+len(alt))
				next = append(next, sortDedupIDs(append(append(u, base...), alt...)))
			}
		}
		acc = next
	}
	return dedupAlts(acc), nil
}

// tryVerticalSplit is the attribute-level factoring rule: a tuple-level
// component whose alternatives are singleton facts of one relation, and
// whose alternative count equals the product of its per-slot distinct
// value counts, is exactly the cross product of those per-slot value
// sets — the counting argument: the alternatives are pairwise distinct
// (dedup upstream) and each is a member of the product, so equal
// cardinality forces set equality. Certified components are rewritten
// into the template form, which stores Σ|slotᵢ| symbols instead of
// Π|slotᵢ| alternatives; anything else is returned unchanged.
//
// Components whose values would not survive a parse→print round trip
// (names using the slot grammar's reserved characters) are left at
// tuple level so String stays closed under ParseWSD.
func (w *WSD) tryVerticalSplit(c component) component {
	if len(c.alts) < 2 {
		return c
	}
	relIdx := int32(-1)
	for _, alt := range c.alts {
		if len(alt) != 1 {
			return c
		}
		f := w.fact(alt[0])
		if relIdx < 0 {
			relIdx = f.rel
		} else if f.rel != relIdx {
			return c
		}
	}
	arity := w.schema[relIdx].Arity
	if arity == 0 {
		return c
	}
	seen := make([]map[sym.ID]bool, arity)
	cells := make([][]sym.ID, arity)
	for i := range seen {
		seen[i] = make(map[sym.ID]bool)
	}
	for _, alt := range c.alts {
		t := w.fact(alt[0]).tuple
		for i, id := range t {
			if !seen[i][id] {
				seen[i][id] = true
				cells[i] = append(cells[i], id)
			}
		}
	}
	product := 1
	for _, cell := range cells {
		product *= len(cell)
		if product > len(c.alts) {
			return c // the product strictly exceeds the alternatives: not a full product
		}
	}
	if product != len(c.alts) {
		return c
	}
	for _, cell := range cells {
		for _, id := range cell {
			if !plainCellValue(id.Name()) {
				return c
			}
		}
	}
	for i := range cells {
		cells[i] = sortDedupCell(cells[i])
	}
	w.obsCost.Add(obs.NormVerticalSplits, 1)
	return component{attr: &attrComp{rel: relIdx, cells: cells}}
}

// splitAlts factors one component's alternative list into independent
// sub-components. It is the engine shared by Normalize and FromWorlds:
// the alternatives of a component are treated as the "worlds" of a local
// world set over the component's support, and factored exactly.
//
// The key observation making this cheap: group the support facts into
// blocks of identical traces (a fact's trace is the bit vector of which
// alternatives contain it). Facts of one block always co-occur, so an
// alternative is fully determined by its block bit-vector, and all
// reasoning happens on a (#alts × #blocks) boolean matrix:
//
//   - two blocks are independent iff their trace pair set is the full
//     product of their individual trace value sets;
//   - a candidate partition is valid iff the distinct-projection counts
//     multiply to the total distinct count (inclusion plus counting gives
//     exact equality of the product with the original set).
//
// Candidate partitions are unions of connected components of the pairwise
// dependence graph; each peel is verified by the counting argument, so a
// pairwise-independent but jointly dependent family (the XOR pattern)
// stays atomic, as it must.
func splitAlts(alts [][]int32) [][][]int32 {
	n := len(alts)
	if n <= 1 {
		return [][][]int32{alts}
	}

	// Block discovery: fact -> trace over alternatives. The traces are
	// rows of one flat array, in first-seen fact order; occ holds each
	// occurrence's row, so the array is made once at its final size.
	words := (n + 63) / 64
	total := 0
	for _, alt := range alts {
		total += len(alt)
	}
	row := make(map[int32]int32, total)
	factOrder := make([]int32, 0, total)
	occ := make([]int32, 0, total)
	for _, alt := range alts {
		for _, f := range alt {
			r, ok := row[f]
			if !ok {
				r = int32(len(factOrder))
				row[f] = r
				factOrder = append(factOrder, f)
			}
			occ = append(occ, r)
		}
	}
	traces := make([]uint64, len(factOrder)*words)
	for j, alt := range alts {
		for _, r := range occ[:len(alt)] {
			traces[int(r)*words+j/64] |= 1 << (j % 64)
		}
		occ = occ[len(alt):]
	}
	if len(factOrder) == 0 {
		// All alternatives empty; dedup upstream leaves exactly one.
		return [][][]int32{alts}
	}

	factBlock, rep := traceBlocks(traces, words)
	if len(rep) == 1 {
		return [][][]int32{alts}
	}

	// Each block's facts, in first-seen order, are a window of one flat
	// array laid out by counting.
	type block struct {
		facts []int32
		bits  []uint64
	}
	blocks := make([]block, len(rep))
	start := make([]int32, len(rep)+1)
	for _, bi := range factBlock {
		start[bi+1]++
	}
	for bi := range blocks {
		start[bi+1] += start[bi]
	}
	flat := make([]int32, len(factOrder))
	for bi := range blocks {
		r := int(rep[bi]) * words
		blocks[bi] = block{facts: flat[start[bi]:start[bi]:start[bi+1]], bits: traces[r : r+words]}
	}
	for i, bi := range factBlock {
		blocks[bi].facts = append(blocks[bi].facts, factOrder[i])
	}

	bit := func(bi int32, j int) byte {
		return byte(blocks[bi].bits[j/64] >> (j % 64) & 1)
	}

	// Pairwise dependence: blocks a and b are independent iff
	// |{(a_j, b_j)}| = |{a_j}| · |{b_j}| over alternatives j.
	dependent := func(a, b int32) bool {
		var pairs, aVals, bVals [4]bool
		for j := 0; j < n; j++ {
			ab, bb := bit(a, j), bit(b, j)
			pairs[ab<<1|bb] = true
			aVals[ab] = true
			bVals[bb] = true
		}
		count := func(m [4]bool) int {
			c := 0
			for _, v := range m {
				if v {
					c++
				}
			}
			return c
		}
		return count(pairs) != count(aVals)*count(bVals)
	}

	// Connected components of the dependence graph.
	uf := unionfind.NewDense(len(blocks))
	for a := range int32(len(blocks)) {
		for b := a + 1; b < int32(len(blocks)); b++ {
			if !uf.Same(a, b) && dependent(a, b) {
				uf.Union(a, b)
			}
		}
	}
	ccs := classesOf(uf)

	// distinctProj counts the distinct alternative signatures restricted
	// to a set of blocks.
	distinctProj := func(groups ...[]int32) int {
		seen := make(map[string]bool, n)
		key := make([]byte, 0, len(blocks))
		for j := 0; j < n; j++ {
			key = key[:0]
			for _, g := range groups {
				for _, bi := range g {
					key = append(key, bit(bi, j))
				}
			}
			seen[string(key)] = true
		}
		return len(seen)
	}

	// Greedy verified peeling: split off one connected group at a time,
	// each split confirmed by the counting argument. Whatever cannot be
	// peeled stays one atomic component.
	remaining := ccs
	var groups [][]int32
	for len(remaining) > 1 {
		total := distinctProj(remaining...)
		peeled := false
		for i, g := range remaining {
			rest := make([][]int32, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			if distinctProj(g)*distinctProj(rest...) == total {
				groups = append(groups, g)
				remaining = rest
				peeled = true
				break
			}
		}
		if !peeled {
			break
		}
	}
	if len(remaining) > 0 {
		var flat []int32
		for _, g := range remaining {
			flat = append(flat, g...)
		}
		groups = append(groups, flat)
	}
	if len(groups) == 1 {
		return [][][]int32{alts}
	}

	// Materialize each group's distinct projections as alternatives.
	out := make([][][]int32, 0, len(groups))
	for _, g := range groups {
		seen := make(map[string]bool, n)
		var galts [][]int32
		key := make([]byte, len(g))
		for j := 0; j < n; j++ {
			for k, bi := range g {
				key[k] = bit(bi, j)
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			var facts []int32
			for k, bi := range g {
				if key[k] == 1 {
					facts = append(facts, blocks[bi].facts...)
				}
			}
			galts = append(galts, sortDedupIDs(facts))
		}
		out = append(out, galts)
	}
	return out
}

// traceBlocks groups facts by equal traces, each trace a row of words
// words: the block of every fact, numbered in first-seen order, and each
// block's first fact. A map from a trace's hash finds the newest block
// with it, chain links each block to the previous one with the same
// hash (-1 ends), and a candidate is confirmed word by word, so no block
// needs a key of its own.
func traceBlocks(traces []uint64, words int) (factBlock, rep []int32) {
	facts := len(traces) / words
	trace := func(i int32) []uint64 { return traces[int(i)*words : int(i+1)*words] }
	blockOf := make(map[uint64]int32, facts)
	factBlock = make([]int32, facts)
	rep = make([]int32, 0, facts)
	chain := make([]int32, 0, facts)
	for i := range int32(facts) {
		tr := trace(i)
		h := hashTrace(tr)
		head, ok := blockOf[h]
		if !ok {
			head = -1
		}
		bi := head
		for bi >= 0 && !slices.Equal(trace(rep[bi]), tr) {
			bi = chain[bi]
		}
		if bi < 0 {
			bi = int32(len(rep))
			rep = append(rep, i)
			chain = append(chain, head)
			blockOf[h] = bi
		}
		factBlock[i] = bi
	}
	return factBlock, rep
}

// hashTrace hashes a trace bit vector. On one word it is a bijection,
// so blocks of up to 64 alternatives never share a hash.
func hashTrace(tr []uint64) uint64 {
	var h uint64
	for _, w := range tr {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	return h
}

// canonicalize rebuilds the fact table in display order and sorts
// alternatives and components, so equal world sets normalize to equal
// printed forms. Attribute-level components keep no fact-table entries;
// their slot value lists are already sorted, and they order among the
// tuple-level components by their minimal instantiation.
func (w *WSD) canonicalize() {
	// remap is the dense old→new fact ID map; -1 marks a fact no
	// alternative uses (dropped).
	remap := slices.Repeat([]int32{-1}, w.facts.len())
	var old []int32
	for _, c := range w.pending {
		for _, alt := range c.alts {
			for _, f := range alt {
				if remap[f] < 0 {
					remap[f] = 0
					old = append(old, f)
				}
			}
		}
	}
	w.sortDisplay(old)

	facts := make([]storedFact, len(old))
	index := newFactSet(len(old))
	for newID, oldID := range old {
		remap[oldID] = int32(newID)
		f := w.fact(oldID)
		facts[newID] = f
		index.add(factHash(f.rel, f.tuple), int32(newID))
	}
	w.facts = chunkedOf(facts)
	w.factIndex = index
	w.factDelta = factSet{}
	w.indexShared, w.factsShared, w.factsLoose = false, false, false

	for ci := range w.pending {
		c := &w.pending[ci]
		if c.attr != nil {
			continue
		}
		for ai, alt := range c.alts {
			for k, f := range alt {
				alt[k] = remap[f]
			}
			c.alts[ai] = sortDedupIDs(alt)
		}
		slices.SortFunc(c.alts, compareAlts)
	}
	// Supports are disjoint, so each component's display key — its
	// display-least support fact — is a unique sort key.
	keys := make([]dispKey, len(w.pending))
	for i := range w.pending {
		keys[i] = w.dispKeyOf(&w.pending[i])
	}
	sortByDispKey(w.pending, keys)
}

// sortDisplay sorts fact IDs into the canonical display order of
// factLess: schema position, then tuple by symbol name.
func (w *WSD) sortDisplay(ids []int32) {
	keys := make([]dispKey, len(ids))
	for i, id := range ids {
		f := w.fact(id)
		keys[i] = dispKey{ok: true, rel: f.rel, t: f.tuple, id: -1}
	}
	sortByDispKey(ids, keys)
}

// dispKey is a position in the canonical display order: a relation and
// a tuple, compared by schema position, then by symbol name. A
// component's key is its display-least support fact (dispKeyOf);
// supports are disjoint, so no two components of one version share one.
type dispKey struct {
	ok  bool // false: the component has no facts (sorts last)
	rel int32
	t   sym.Tuple
	id  int32 // t's fact ID while fact IDs are display positions, else -1
}

// dispKeyOf returns a component's display key: for a template its
// minimal instantiation, else its display-least fact — the smallest ID
// while fact IDs are display positions, found by factLess once an
// update has loosened them.
func (w *WSD) dispKeyOf(c *component) dispKey {
	if c.attr != nil {
		return dispKey{ok: true, rel: c.attr.rel, t: c.attr.minTuple(), id: -1}
	}
	best := int32(-1)
	for _, alt := range c.alts {
		for _, f := range alt {
			if best < 0 || (w.factsLoose && w.factLess(f, best)) || (!w.factsLoose && f < best) {
				best = f
			}
		}
	}
	if best < 0 {
		return dispKey{}
	}
	f := w.fact(best)
	k := dispKey{ok: true, rel: f.rel, t: f.tuple, id: -1}
	if !w.factsLoose {
		k.id = best
	}
	return k
}

// sortByDispKey sorts xs by their display keys (keys[i] is xs[i]'s):
// keyless entries last, then by relation, then by tuple name, except
// that two keys carrying fact IDs compare by ID (IDs that are display
// positions agree with the name order). The sort moves pointer-free
// records and compares names resolved once per key symbol, not
// sym.Compare per comparison. Keys hold constants only (facts are
// ground), so plain name order is sym.Compare's.
func sortByDispKey[T any](xs []T, keys []dispKey) {
	type ranked struct {
		pos     int32 // relation; math.MaxInt32 for no key
		id      int32 // the key's fact ID, or -1
		at, end int32 // the key's names are names[at:end]
		i       int32 // position in xs
	}
	n := 0
	for _, k := range keys {
		n += len(k.t)
	}
	names := make([]string, 0, n)
	rs := make([]ranked, len(xs))
	for i, k := range keys {
		rs[i] = ranked{pos: math.MaxInt32, id: -1, i: int32(i)}
		if !k.ok {
			continue
		}
		rs[i].pos, rs[i].id, rs[i].at = k.rel, k.id, int32(len(names))
		for _, s := range k.t {
			names = append(names, s.Name())
		}
		rs[i].end = int32(len(names))
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if a.id >= 0 && b.id >= 0 {
			return cmp.Compare(a.id, b.id)
		}
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		return slices.Compare(names[a.at:a.end], names[b.at:b.end])
	})
	sorted := make([]T, len(xs))
	for k, r := range rs {
		sorted[k] = xs[r.i]
	}
	copy(xs, sorted)
}

// compareAlts orders alternatives by length, then lexicographically by
// IDs.
func compareAlts(a, b []int32) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return slices.Compare(a, b)
}

// buildIndexes moves the canonical pending components into the store —
// IDs are display positions — and derives the query-path acceleration
// structures, checking the disjoint-support invariant.
func (w *WSD) buildIndexes() {
	w.comps = chunkedOf(w.pending)
	w.pending = nil
	w.rederive()
}

// rederive derives the per-fact state, the template lists and the
// per-version counters from the component store, from scratch.
func (w *WSD) rederive() {
	facts := make([]factState, w.facts.len())
	for i := range facts {
		facts[i].comp = -1
	}
	w.certainComp = -1
	w.attrByRel = nil
	w.free = nil
	w.live, w.units, w.altFacts = 0, 0, 0
	w.order.Store(nil)
	w.post.Store(nil)
	w.count.Store(nil)
	for ci := 0; ci < w.comps.len(); ci++ {
		c := w.comps.ref(ci)
		if c.dead() {
			w.free = append(w.free, int32(ci))
			continue
		}
		w.live++
		w.units += c.units()
		if a := c.attr; a != nil {
			if w.attrByRel == nil {
				w.attrByRel = make([]idList, len(w.schema))
			}
			l := &w.attrByRel[a.rel]
			l.base = append(l.base, int32(ci))
			continue
		}
		if c.altIndex == nil {
			c = w.comps.slot(ci)
			c.altIndex = make(map[uint64][]int32, len(c.alts))
			for ai, alt := range c.alts {
				h := altHash(alt)
				c.altIndex[h] = append(c.altIndex[h], int32(ai))
			}
		}
		if len(c.alts) == 1 {
			w.certainComp = int32(ci)
		}
		for _, alt := range c.alts {
			w.altFacts += int64(len(alt))
			for _, f := range alt {
				if facts[f].comp >= 0 && facts[f].comp != int32(ci) {
					panic("wsd: internal error: overlapping component supports after normalize")
				}
				facts[f].comp = int32(ci)
			}
		}
		// A fact is certain iff every alternative holds it; alternatives
		// are sorted ID lists, so probe the others for each of the first's.
		for _, f := range c.alts[0] {
			inAll := true
			for _, alt := range c.alts[1:] {
				if _, ok := slices.BinarySearch(alt, f); !ok {
					inAll = false
					break
				}
			}
			facts[f].certain = inAll
		}
	}
	w.holes = 0
	for _, s := range facts {
		if s.comp < 0 {
			w.holes++
		}
	}
	w.factState = chunkedOf(facts)
}

// units returns the component's choice-axis count: 1 for a tuple-level
// component, the open-slot count for a template, 0 for a tombstone.
func (c *component) units() int64 {
	if c.attr == nil {
		if c.alts == nil {
			return 0
		}
		return 1
	}
	n := int64(0)
	for _, cell := range c.attr.cells {
		if len(cell) > 1 {
			n++
		}
	}
	return n
}
