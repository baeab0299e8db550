// Updates on decompositions with incremental renormalization. An Update
// is a sequence of operations with "apply to every world" semantics:
//
//	insert: R(a b)            every world gains the fact
//	delete: R(a *)            every world loses the facts matching the pattern
//	update: R(* lo) set 2=hi  matching facts are rewritten slot-wise
//	assume: R(a b)            keep only the worlds containing the fact
//	assume-not: R(a b)        keep only the worlds lacking the fact
//
// The first three are the classical WSD update operations (Antova, Koch
// & Olteanu; Olteanu, Koch & Antova treat updates on decompositions
// directly); the two world-filtering forms are the `choice-of`-style
// hypothetical updates of Koch's world-set algebra, restricting the
// world set by a condition instead of editing worlds.
//
// ApplyUpdate is incremental: an operation touches only the components
// whose supports it matches, and only those are re-factored (dedup,
// horizontal trace/block split, vertical template split, certain fold).
// Untouched components — their alternative lists and alternative
// indexes — and the fact table itself are structurally shared with the
// input decomposition, which is never mutated: the pre-update WSD stays
// a valid consistent snapshot, so a server can keep answering reads
// from it while the update builds its successor. The fact table is
// copied lazily, only when an operation interns a fact the snapshot has
// never seen (copy-on-write).
//
// The install costs what the update touches plus flat array passes.
// Survivors keep their relative order, so the old-to-new component
// index map is monotone: added components are placed among the
// survivors by binary search on their display keys, and the derived
// arrays and every built piece of the posting index are the parent's,
// remapped through that map, plus the added components' entries — no
// per-component key scan, no sort of the whole list, no index rebuild.
//
// The incremental result satisfies every normalized invariant the query
// methods rely on (distinct alternatives, disjoint supports, maximal
// factoring, at most one certain component) and prints identically to a
// from-scratch Normalize of the same world set; only its internal fact
// IDs are not display-ordered. Deleted facts leave holes in the shared
// table (they cannot be removed without breaking the snapshot); the
// query paths treat a fact without a component as outside the support,
// and ApplyUpdate compacts the table once holes outnumber live facts.
package wsd

import (
	"cmp"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"pw/internal/obs"
	"pw/internal/rel"
	"pw/internal/sym"
)

// Wildcard is the pattern slot that matches any constant in delete and
// conditional-update patterns.
const Wildcard = "*"

// UpdateKind enumerates the operations of the @update language.
type UpdateKind int

const (
	// OpInsert adds a ground fact to every world.
	OpInsert UpdateKind = iota
	// OpDelete removes the facts matching a pattern from every world.
	OpDelete
	// OpSet rewrites the slots of every fact matching a pattern
	// (the conditional update; keyword "update" in the syntax).
	OpSet
	// OpAssume keeps only the worlds that contain a ground fact.
	OpAssume
	// OpAssumeNot keeps only the worlds that lack a ground fact.
	OpAssumeNot
)

// keyword returns the .pw directive spelling of the kind.
func (k UpdateKind) keyword() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSet:
		return "update"
	case OpAssume:
		return "assume"
	case OpAssumeNot:
		return "assume-not"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// SlotAssign is one `set` assignment of a conditional update: slot Slot
// (0-based) of every matching fact becomes the constant Value.
type SlotAssign struct {
	Slot  int
	Value string
}

// UpdateOp is one operation. Args holds one entry per slot of the
// relation: a constant name, or Wildcard for OpDelete/OpSet patterns
// (the other kinds take ground facts only).
type UpdateOp struct {
	Kind UpdateKind
	Rel  string
	Args []string
	Set  []SlotAssign // OpSet only
}

// String renders the operation as one @update body line.
func (op UpdateOp) String() string {
	var b strings.Builder
	b.WriteString(op.Kind.keyword())
	b.WriteString(": ")
	b.WriteString(op.Rel)
	b.WriteString("(")
	b.WriteString(strings.Join(op.Args, " "))
	b.WriteString(")")
	for i, a := range op.Set {
		sep := ", "
		if i == 0 {
			sep = " set "
		}
		fmt.Fprintf(&b, "%s%d = %s", sep, a.Slot+1, a.Value)
	}
	return b.String()
}

// Update is a sequence of operations applied in order: each operation
// maps the whole world set (worlds that become equal merge, so the
// result is again a set).
type Update struct {
	Ops []UpdateOp
}

// String renders the update in .pw @update syntax (parsable by
// parse.ParseUpdate).
func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("@update")
	for _, op := range u.Ops {
		b.WriteString("\n  ")
		b.WriteString(op.String())
	}
	return b.String()
}

// ApplyToWorld applies the update to one explicit world — the reference
// "each world separately" semantics the decomposition engine is
// differential-tested against. ok is false when a world-filtering
// operation rejects the world. The input instance is not mutated.
func (u *Update) ApplyToWorld(w *rel.Instance) (out *rel.Instance, ok bool) {
	cur := w.Clone()
	for i := range u.Ops {
		op := &u.Ops[i]
		switch op.Kind {
		case OpInsert:
			cur.EnsureRelation(op.Rel, len(op.Args)).Insert(rel.Fact(op.Args).Intern())
		case OpAssume, OpAssumeNot:
			r := cur.Relation(op.Rel)
			t, known := lookupArgs(op.Args)
			has := r != nil && known && r.Contains(t)
			if has != (op.Kind == OpAssume) {
				return nil, false
			}
		case OpDelete, OpSet:
			r := cur.Relation(op.Rel)
			if r == nil {
				continue
			}
			pat, live := resolveArgsPattern(op.Args)
			if !live {
				continue
			}
			nr := rel.NewRelation(r.Name, r.Arity)
			for _, t := range r.Tuples() {
				if !pat.matches(t) {
					nr.Insert(t)
					continue
				}
				if op.Kind == OpDelete {
					continue
				}
				nt := t.Clone()
				for _, a := range op.Set {
					nt[a.Slot] = sym.Const(a.Value)
				}
				nr.Insert(nt)
			}
			next := rel.NewInstance()
			for _, rr := range cur.Relations() {
				if rr.Name == r.Name {
					next.AddRelation(nr)
					continue
				}
				next.AddRelation(rr)
			}
			cur = next
		}
	}
	return cur, true
}

// Footprint names the relations whose contents the update can change:
// the projection of the world set onto any relation set disjoint from
// rels is the same before and after the update (when all is false).
//
// Insert, delete and conditional update on relation R rewrite R and
// nothing else in every world (ApplyToWorld), and never drop a world. A
// world set maps onto its image world by world, so its projection onto
// relations other than R is unchanged; so is every answer of a query
// that scans only those relations. Assume and assume-not filter worlds:
// dropping a world can drop its projection onto any relation, so their
// footprint is every relation.
func (u *Update) Footprint() (rels []string, all bool) {
	for i := range u.Ops {
		op := &u.Ops[i]
		switch op.Kind {
		case OpInsert, OpDelete, OpSet:
			if !slices.Contains(rels, op.Rel) {
				rels = append(rels, op.Rel)
			}
		default:
			return nil, true
		}
	}
	return rels, false
}

// ApplyUpdateToWorlds is the world-wise reference semantics shared by
// the differential tests: the update applied to each explicit world
// separately, non-surviving worlds (failed assumptions) dropped, and
// the results deduplicated.
func ApplyUpdateToWorlds(ws []*rel.Instance, u *Update) []*rel.Instance {
	var out []*rel.Instance
	seen := make(map[string]bool, len(ws))
	for _, w := range ws {
		img, ok := u.ApplyToWorld(w)
		if !ok {
			continue
		}
		if k := img.Key(); !seen[k] {
			seen[k] = true
			out = append(out, img)
		}
	}
	return out
}

// lookupArgs resolves ground args to an interned tuple without growing
// the symbol table; ok is false when a constant has never been seen
// (such a fact is in no stored world).
func lookupArgs(args []string) (sym.Tuple, bool) {
	t := make(sym.Tuple, len(args))
	for i, c := range args {
		id, ok := sym.LookupConst(c)
		if !ok {
			return nil, false
		}
		t[i] = id
	}
	return t, true
}

// symPattern is a resolved match pattern: one slot per relation
// position, either a constant symbol or a wildcard.
type symPattern struct {
	slots []sym.ID
	anys  []bool
}

// resolveArgsPattern resolves pattern args; live is false when a
// constant slot names a never-seen symbol (nothing can match).
func resolveArgsPattern(args []string) (symPattern, bool) {
	p := symPattern{slots: make([]sym.ID, len(args)), anys: make([]bool, len(args))}
	for i, a := range args {
		if a == Wildcard {
			p.anys[i] = true
			continue
		}
		id, ok := sym.LookupConst(a)
		if !ok {
			return p, false
		}
		p.slots[i] = id
	}
	return p, true
}

// matches reports whether the tuple matches the pattern positionwise.
func (p symPattern) matches(t sym.Tuple) bool {
	for i, id := range t {
		if !p.anys[i] && p.slots[i] != id {
			return false
		}
	}
	return true
}

// matchesTemplate reports whether the pattern matches at least one
// instantiation of the template: positionwise, every constrained slot's
// constant must be in the cell.
func (p symPattern) matchesTemplate(a *attrComp) bool {
	if len(p.slots) != len(a.cells) {
		return false
	}
	for i := range p.slots {
		if !p.anys[i] && !cellHas(a.cells[i], p.slots[i]) {
			return false
		}
	}
	return true
}

// ApplyUpdate applies the update with incremental renormalization and
// returns the successor decomposition. The receiver is unchanged and
// remains a valid snapshot: untouched components, their alternative
// indexes, and (until an op interns a new fact) the fact table are
// shared copy-on-write between the two. The only errors are schema
// mismatches and the MaxMergeAlts blow-up guard; on error the receiver
// is still unchanged.
func (w *WSD) ApplyUpdate(u *Update) (*WSD, error) {
	return w.ApplyUpdateObserved(u, nil)
}

// ApplyUpdateObserved is ApplyUpdate with a cost-accounting sink: the
// update engine records touched/survivor component counts and COW
// unshare events into c (which may be nil — then this is exactly
// ApplyUpdate). The sink is detached from the successor before it is
// returned, so it never outlives the request that supplied it.
func (w *WSD) ApplyUpdateObserved(u *Update, c *obs.Cost) (*WSD, error) {
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	// The successor's world count is the parent's carried by delta
	// through every install (installIncremental); count the parent once.
	w.countMemo()
	// Delete and update patterns find their targets through the posting
	// index (rewriteTargets). Build it on the parent, where reads of that
	// version and later updates from it find it too; the snapshot
	// carries it.
	for i := range u.Ops {
		if k := u.Ops[i].Kind; k == OpDelete || k == OpSet {
			w.postingIndex()
			break
		}
	}
	out := w.snapshotClone()
	out.obsCost = c
	for i := range u.Ops {
		if err := out.applyOp(&u.Ops[i], false); err != nil {
			return nil, err
		}
	}
	// Deleted facts accumulate as holes in the shared table; once they
	// outnumber the live facts, pay for one canonical rebuild so a
	// long-running update stream cannot leak.
	if out.holes > 64 && out.holes > len(out.facts)-out.holes {
		out = out.compacted()
	}
	out.obsCost = nil
	return out, nil
}

// ApplyUpdateFull is the reference implementation: a deep clone with a
// from-scratch Normalize after every operation. It exists for the
// differential and property tests (the incremental path must produce
// the identical canonical form) and as the benchmark baseline that the
// incremental path is measured against.
func (w *WSD) ApplyUpdateFull(u *Update) (*WSD, error) {
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	out := w.Clone()
	for i := range u.Ops {
		if err := out.applyOp(&u.Ops[i], true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// snapshotClone returns the copy the incremental path mutates. It
// shares everything with the receiver: the component list (capacity-
// clipped), alternative lists and indexes, the fact table and index,
// the derived arrays (factComp, certain, attrByRel) and the posting
// index. The update engine treats every shared structure as immutable:
// an install splices a fresh component list whose touched components
// are fresh slices, intern copies the fact table first (cowFacts), and
// the derived arrays and the carried posting index are written fresh
// (patchDerived). An update that installs nothing — every operation a
// no-op — therefore shares the parent's posting index; both versions
// hold the same components, so a column either one builds is valid for
// the other.
func (w *WSD) snapshotClone() *WSD {
	c := &WSD{
		schema:      w.schema,
		schemaIdx:   w.schemaIdx,
		facts:       w.facts[:len(w.facts):len(w.facts)],
		factIndex:   w.factIndex,
		factsShared: true,
		compsShared: true,
		comps:       w.comps[:len(w.comps):len(w.comps)],
		empty:       w.empty,
		normalized:  true,
		factComp:    w.factComp,
		certain:     w.certain,
		attrByRel:   w.attrByRel,
		holes:       w.holes,
		factsLoose:  w.factsLoose,
	}
	c.post.Store(w.post.Load())
	c.count.Store(w.count.Load())
	return c
}

// cowFacts un-shares the fact table and fact index before the first
// intern into a snapshot clone (copy-on-write).
func (w *WSD) cowFacts() {
	if !w.factsShared {
		return
	}
	w.facts = append(make([]storedFact, 0, len(w.facts)+8), w.facts...)
	w.factIndex = w.factIndex.clone()
	w.factsShared = false
	w.obsCost.Add(obs.UpdateCOWUnshares, 1)
}

// compacted returns a fully re-canonicalized copy (fact-table holes
// dropped, IDs back in display order). Normalization of an
// already-valid decomposition cannot hit the merge guard; if it ever
// errored the un-compacted decomposition is returned unchanged.
func (w *WSD) compacted() *WSD {
	c := w.Clone()
	c.normalized = false
	if err := c.Normalize(); err != nil {
		return w
	}
	c.holes, c.factsLoose = 0, false
	c.count.Store(w.count.Load()) // the same world set
	return c
}

// opPlan is the outcome of planning one operation: either a trivial
// verdict, or a set of components to drop and the raw (pre-renorm)
// alternative lists replacing them.
type opPlan struct {
	noop   bool
	empty  bool
	drop   []int32
	groups [][][]int32
}

// applyOp plans one operation and installs it, incrementally or via a
// full renormalization.
func (w *WSD) applyOp(op *UpdateOp, full bool) error {
	ri, err := w.opRelIndex(op)
	if err != nil {
		return err
	}
	if w.empty {
		return nil // every operation maps ∅ to ∅
	}
	var p opPlan
	switch op.Kind {
	case OpInsert:
		err = w.planInsert(ri, op, &p)
	case OpDelete, OpSet:
		err = w.planRewrite(ri, op, full, &p)
	case OpAssume:
		err = w.planAssume(ri, op, true, &p)
	case OpAssumeNot:
		err = w.planAssume(ri, op, false, &p)
	default:
		err = fmt.Errorf("wsd: unknown update op kind %d", int(op.Kind))
	}
	if err != nil {
		return err
	}
	if p.noop {
		return nil
	}
	if p.empty {
		w.clearToEmpty()
		return nil
	}
	if full {
		return w.installFull(&p)
	}
	return w.installIncremental(&p)
}

// opRelIndex validates the operation against the schema.
func (w *WSD) opRelIndex(op *UpdateOp) (int32, error) {
	ri, ok := w.schemaIdx[op.Rel]
	if !ok {
		return 0, fmt.Errorf("wsd: update references unknown relation %s", op.Rel)
	}
	arity := w.schema[ri].Arity
	if len(op.Args) != arity {
		return 0, fmt.Errorf("wsd: update %s: %s takes %d slots, got %d",
			op.Kind.keyword(), op.Rel, arity, len(op.Args))
	}
	if op.Kind != OpDelete && op.Kind != OpSet {
		for _, a := range op.Args {
			if a == Wildcard {
				return 0, fmt.Errorf("wsd: update %s requires a ground fact; %q is the pattern wildcard",
					op.Kind.keyword(), Wildcard)
			}
		}
	}
	if op.Kind == OpSet && len(op.Set) == 0 {
		return 0, fmt.Errorf("wsd: conditional update on %s has no set assignments", op.Rel)
	}
	for _, a := range op.Set {
		if a.Slot < 0 || a.Slot >= arity {
			return 0, fmt.Errorf("wsd: update on %s sets slot %d, relation has %d slots",
				op.Rel, a.Slot+1, arity)
		}
		if a.Value == Wildcard {
			return 0, fmt.Errorf("wsd: update on %s sets slot %d to the wildcard; set values must be constants",
				op.Rel, a.Slot+1)
		}
	}
	return int32(ri), nil
}

// planInsert plans W → W ∪ {f}: the fact joins every alternative of
// its owning component (certain fold happens in the install), or forms
// a new certain component when it is outside the support.
func (w *WSD) planInsert(ri int32, op *UpdateOp, p *opPlan) error {
	t := rel.Fact(op.Args).Intern()
	if id, ok := w.lookup(ri, t); ok && w.factComp[id] >= 0 {
		if w.certain[id] {
			p.noop = true
			return nil
		}
		ci := w.factComp[id]
		c := &w.comps[ci]
		alts := make([][]int32, len(c.alts))
		for i, alt := range c.alts {
			alts[i] = insertSorted(alt, id)
		}
		p.drop = []int32{ci}
		p.groups = [][][]int32{alts}
		return nil
	}
	if ci, ok := w.attrOwner(ri, t); ok {
		alts, err := w.expandAttr(w.comps[ci].attr)
		if err != nil {
			return err
		}
		id := w.intern(ri, t)
		for i, alt := range alts {
			alts[i] = insertSorted(alt, id)
		}
		p.drop = []int32{ci}
		p.groups = [][][]int32{alts}
		return nil
	}
	// Outside the support: a brand-new certain fact.
	id := w.intern(ri, t)
	p.groups = [][][]int32{{{id}}}
	return nil
}

// planAssume plans the world filters: keep the worlds where the fact's
// presence equals keep. Independence makes this local: only the owning
// component's alternatives are filtered.
func (w *WSD) planAssume(ri int32, op *UpdateOp, keep bool, p *opPlan) error {
	id, ci := int32(-1), int32(-1)
	if t, known := lookupArgs(op.Args); known {
		if sid, ok := w.lookup(ri, t); ok && w.factComp[sid] >= 0 {
			id, ci = sid, w.factComp[sid]
		} else if aci, ok := w.attrOwner(ri, t); ok {
			ci = aci
			// The template owns the fact; materialize its ID lazily below.
		}
	}
	if ci < 0 {
		// The fact is possible in no world.
		if keep {
			p.empty = true
		} else {
			p.noop = true
		}
		return nil
	}
	c := &w.comps[ci]
	if a := c.attr; a != nil {
		t, _ := lookupArgs(op.Args)
		if keep {
			// Exactly one instantiation survives: the fact becomes certain.
			p.drop = []int32{ci}
			p.groups = [][][]int32{{{w.intern(ri, t)}}}
			return nil
		}
		alts, err := w.expandAttr(a)
		if err != nil {
			return err
		}
		fid := w.intern(ri, t)
		kept := alts[:0]
		for _, alt := range alts {
			if len(alt) == 1 && alt[0] == fid {
				continue
			}
			kept = append(kept, alt)
		}
		p.drop = []int32{ci}
		p.groups = [][][]int32{kept}
		return nil
	}
	if w.certain[id] {
		if keep {
			p.noop = true
		} else {
			p.empty = true
		}
		return nil
	}
	kept := make([][]int32, 0, len(c.alts))
	for _, alt := range c.alts {
		if containsSorted(alt, []int32{id}) == keep {
			kept = append(kept, alt)
		}
	}
	p.drop = []int32{ci}
	p.groups = [][][]int32{kept}
	return nil
}

// planRewrite plans delete and conditional update: every component
// whose support matches the pattern is rewritten alternative-wise.
// Conditional updates may intern new facts; collisions with other
// components' supports are resolved by the install's overlap merge.
// The incremental path finds the matching components through the
// posting index, the full reference path by a scan.
func (w *WSD) planRewrite(ri int32, op *UpdateOp, full bool, p *opPlan) error {
	pat, live := resolveArgsPattern(op.Args)
	if !live {
		p.noop = true
		return nil
	}
	var assigns []SlotAssign
	if op.Kind == OpSet {
		assigns = op.Set
	}
	var order []int32
	if full {
		order = w.scanTargets(ri, pat)
	} else {
		order = w.rewriteTargets(ri, pat)
	}
	if len(order) == 0 {
		p.noop = true
		return nil
	}
	for _, ci := range order {
		c := &w.comps[ci]
		src := c.alts
		if c.attr != nil {
			var err error
			if src, err = w.expandAttr(c.attr); err != nil {
				return err
			}
		}
		dst := make([][]int32, len(src))
		for i, alt := range src {
			dst[i] = w.rewriteAlt(alt, ri, pat, op.Kind == OpDelete, assigns)
		}
		p.drop = append(p.drop, ci)
		p.groups = append(p.groups, dst)
	}
	return nil
}

// rewriteTargets returns the components holding a fact of relation ri
// that matches the pattern, ascending. A pattern with a constant slot
// reads that column's postings — the tuple-level components with a fact
// carrying the constant there, and the templates whose cell holds it —
// instead of the whole fact table; an all-wildcard pattern reads the
// relation's component and template lists. Every candidate is then
// checked against the full pattern.
func (w *WSD) rewriteTargets(ri int32, pat symPattern) []int32 {
	p := w.postingIndex()
	comps, tmpls := p.rels[ri].comps, w.attrByRel[ri]
	for j, wild := range pat.anys {
		if wild {
			continue
		}
		comps = w.column(p, int(ri), j, false).lookup(pat.slots[j])
		if len(tmpls) > 0 {
			tmpls = w.column(p, int(ri), j, true).lookup(pat.slots[j])
		}
		break
	}
	var out []int32
	for _, ci := range comps {
		if w.holdsMatch(&w.comps[ci], ri, pat) {
			out = append(out, ci)
		}
	}
	for _, ci := range tmpls {
		if pat.matchesTemplate(w.comps[ci].attr) {
			out = append(out, ci)
		}
	}
	slices.Sort(out)
	return out
}

// scanTargets is rewriteTargets by a scan of every stored fact and
// every template of the relation, independent of the posting index: the
// reference path (ApplyUpdateFull) finds its targets this way, so the
// incremental-vs-full differential tests check the index lookups too.
func (w *WSD) scanTargets(ri int32, pat symPattern) []int32 {
	matched := make(map[int32]bool)
	for id, f := range w.facts {
		if ci := w.factComp[id]; ci >= 0 && f.rel == ri && pat.matches(f.tuple) {
			matched[ci] = true
		}
	}
	for _, ci := range w.attrByRel[ri] {
		if pat.matchesTemplate(w.comps[ci].attr) {
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

// holdsMatch reports whether some alternative of a tuple-level
// component holds a fact of relation ri matching the pattern.
func (w *WSD) holdsMatch(c *component, ri int32, pat symPattern) bool {
	for _, alt := range c.alts {
		for _, id := range alt {
			if f := w.facts[id]; f.rel == ri && pat.matches(f.tuple) {
				return true
			}
		}
	}
	return false
}

// rewriteAlt maps one alternative through the delete/update image,
// always into a fresh sorted slice.
func (w *WSD) rewriteAlt(alt []int32, ri int32, pat symPattern, del bool, assigns []SlotAssign) []int32 {
	out := make([]int32, 0, len(alt))
	for _, id := range alt {
		f := w.facts[id]
		if f.rel != ri || !pat.matches(f.tuple) {
			out = append(out, id)
			continue
		}
		if del {
			continue
		}
		t := f.tuple.Clone()
		for _, a := range assigns {
			t[a.Slot] = sym.Const(a.Value)
		}
		out = append(out, w.intern(ri, t))
	}
	return sortDedupIDs(out)
}

// insertSorted returns a fresh sorted copy of alt with id included.
func insertSorted(alt []int32, id int32) []int32 {
	out := make([]int32, 0, len(alt)+1)
	placed := false
	for _, f := range alt {
		if !placed && id <= f {
			if id < f {
				out = append(out, id)
			}
			placed = true
		}
		out = append(out, f)
	}
	if !placed {
		out = append(out, id)
	}
	return out
}

// installFull splices the plan's replacement groups in as plain
// components and runs the from-scratch Normalize — the reference path.
func (w *WSD) installFull(p *opPlan) error {
	drop := make(map[int32]bool, len(p.drop))
	for _, ci := range p.drop {
		drop[ci] = true
	}
	kept := make([]component, 0, len(w.comps)+len(p.groups))
	for ci := range w.comps {
		if !drop[int32(ci)] {
			kept = append(kept, w.comps[ci])
		}
	}
	for _, g := range p.groups {
		kept = append(kept, component{alts: g})
	}
	w.comps = kept
	w.normalized = false
	if err := w.Normalize(); err != nil {
		return err
	}
	w.holes, w.factsLoose = 0, false
	return nil
}

// installIncremental re-establishes the normalized invariants touching
// only the plan's groups: overlap closure pulls in any component whose
// support a rewritten fact collided with, each independent class is
// merged and locally re-factored (dedup, horizontal split, vertical
// split, certain fold), and the result is spliced into the surviving
// components (splice), whose derived state is patched by the delta
// rather than rebuilt. Untouched components pass through by value,
// alternative lists and indexes shared.
func (w *WSD) installIncremental(p *opPlan) error {
	drop := make(map[int32]bool, len(p.drop))
	for _, ci := range p.drop {
		drop[ci] = true
	}

	// Overlap closure over the replacement groups: walk every fact of
	// every group; a fact owned by a surviving component pulls that
	// component into the working set (its alternatives join the merge),
	// and a fact shared between two groups unions them. Pulled-in
	// components cannot cascade further — their supports are disjoint
	// from everything else — but their facts still register for unions.
	slots := make([][][]int32, len(p.groups))
	copy(slots, p.groups)
	parent := make([]int, len(slots))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	factGroup := make(map[int32]int)
	pulled := make(map[int32]int)
	for qi := 0; qi < len(slots); qi++ {
		for _, alt := range slots[qi] {
			for _, f := range alt {
				if g, seen := factGroup[f]; seen {
					union(qi, g)
				} else {
					factGroup[f] = qi
				}
				if int(f) < len(w.factComp) {
					if ci := w.factComp[f]; ci >= 0 && !drop[ci] {
						if slot, ok := pulled[ci]; ok {
							union(qi, slot)
						} else {
							drop[ci] = true
							slots = append(slots, w.comps[ci].alts)
							parent = append(parent, len(slots)-1)
							pulled[ci] = len(slots) - 1
							union(qi, len(slots)-1)
						}
					}
				}
				sf := w.facts[f]
				for _, ci := range w.attrByRel[sf.rel] {
					if drop[ci] || !w.comps[ci].attr.contains(sf.tuple) {
						continue
					}
					alts, err := w.expandAttr(w.comps[ci].attr)
					if err != nil {
						return err
					}
					drop[ci] = true
					slots = append(slots, alts)
					parent = append(parent, len(slots)-1)
					pulled[ci] = len(slots) - 1
					union(qi, len(slots)-1)
				}
			}
		}
	}

	// Gather the union-find classes in slot order (deterministic).
	classIdx := make(map[int]int)
	var classes [][]int
	for i := range slots {
		r := find(i)
		k, ok := classIdx[r]
		if !ok {
			k = len(classes)
			classIdx[r] = k
			classes = append(classes, nil)
		}
		classes[k] = append(classes[k], i)
	}

	// Merge each class (cross product, bounded like mergeOverlapping)
	// and re-factor it locally.
	var newComps []component
	var certainIDs []int32
	for _, members := range classes {
		var alts [][]int32
		if len(members) == 1 {
			alts = dedupAlts(append([][]int32(nil), slots[members[0]]...))
		} else {
			product := 1
			for _, m := range members {
				product *= len(slots[m])
				if product > MaxMergeAlts {
					return fmt.Errorf("wsd: update merges %d dependent components into %d+ alternatives (limit %d); the decomposition is too entangled to update in place",
						len(members), product, MaxMergeAlts)
				}
			}
			acc := [][]int32{nil}
			for _, m := range members {
				next := make([][]int32, 0, len(acc)*len(slots[m]))
				for _, base := range acc {
					for _, alt := range slots[m] {
						u := make([]int32, 0, len(base)+len(alt))
						u = append(u, base...)
						u = append(u, alt...)
						next = append(next, sortDedupIDs(u))
					}
				}
				acc = next
			}
			alts = dedupAlts(acc)
		}
		if len(alts) == 0 {
			w.clearToEmpty()
			return nil
		}
		for _, sub := range splitAlts(alts) {
			c := w.tryVerticalSplit(component{alts: sub})
			if c.attr != nil {
				newComps = append(newComps, c)
				continue
			}
			if len(sub) == 1 {
				certainIDs = append(certainIDs, sub[0]...)
				continue
			}
			newComps = append(newComps, w.finishComponent(sub))
		}
	}

	// Fold new certain facts into the (single) certain component.
	if len(certainIDs) > 0 {
		for ci := range w.comps {
			if drop[int32(ci)] || w.comps[ci].attr != nil || len(w.comps[ci].alts) != 1 {
				continue
			}
			drop[int32(ci)] = true
			certainIDs = append(certainIDs, w.comps[ci].alts[0]...)
			break
		}
		newComps = append(newComps, w.finishComponent([][]int32{sortDedupIDs(certainIDs)}))
	}

	// Carry the world count by delta: survivors keep their alternative
	// counts, so the new count is the old one times the added
	// components' counts over the dropped ones' — exact, since the
	// dropped counts divide the old product.
	var count *big.Int
	if old := w.count.Load(); old != nil {
		count = w.carryCount(old, drop, newComps)
	}
	w.splice(drop, newComps)
	w.count.Store(count)
	return nil
}

// carryCount is old × Π added alternative counts / Π dropped ones. The
// common case — every factor and the result within uint64 — is plain
// integer arithmetic and one allocation; anything larger (a template's
// field product, an astronomical world count) takes the big-int path.
func (w *WSD) carryCount(old *big.Int, drop map[int32]bool, added []component) *big.Int {
	num, den, small := uint64(1), uint64(1), old.IsUint64()
	scale := func(acc *uint64, c *component) {
		n, ok := uint64(len(c.alts)), c.attr == nil
		if !ok {
			var k int
			k, ok = c.attr.countInt()
			n = uint64(k)
		}
		hi, lo := bits.Mul64(*acc, n)
		small = small && ok && hi == 0
		*acc = lo
	}
	for i := range added {
		scale(&num, &added[i])
	}
	for ci := range drop {
		scale(&den, &w.comps[ci])
	}
	if small && den != 0 {
		if hi, lo := bits.Mul64(old.Uint64()/den, num); hi == 0 {
			return new(big.Int).SetUint64(lo)
		}
	}
	count := new(big.Int).Set(old)
	for i := range added {
		count.Mul(count, added[i].bigCount())
	}
	d := big.NewInt(1)
	for ci := range drop {
		d.Mul(d, w.comps[ci].bigCount())
	}
	return count.Quo(count, d)
}

// dispKey is a component's position in the canonical component order:
// its display-least support fact (see minSupportFact). Supports are
// disjoint, so no two components of one version share a key.
type dispKey struct {
	ok  bool // false: the component has no facts (sorts last)
	rel int32
	t   sym.Tuple
}

// dispKeyOf mirrors minSupportFact under non-canonical fact IDs: the
// display-least support fact, found by scanning the alternatives.
func (w *WSD) dispKeyOf(c *component) dispKey {
	if c.attr != nil {
		return dispKey{ok: true, rel: c.attr.rel, t: c.attr.minTuple()}
	}
	best := int32(-1)
	for _, alt := range c.alts {
		for _, f := range alt {
			if best < 0 || w.factLess(f, best) {
				best = f
			}
		}
	}
	if best < 0 {
		return dispKey{}
	}
	f := w.facts[best]
	return dispKey{ok: true, rel: f.rel, t: f.tuple}
}

// compare orders display keys: fact-less components last, then by
// relation, then by tuple name.
func (a dispKey) compare(b dispKey) int {
	switch {
	case a.ok != b.ok:
		if a.ok {
			return -1
		}
		return 1
	case !a.ok:
		return 0
	case a.rel != b.rel:
		return cmp.Compare(a.rel, b.rel)
	}
	return a.t.Compare(b.t)
}

// splice installs the new component list: the survivors (every
// component not in drop) keep their relative order, which is already
// canonical, and each added component is placed among them by binary
// search on the display key — O(k·log n) key computations for k added
// components instead of a key per component and a full sort. The map
// from old to new component index is then monotone, which is what lets
// patchDerived and carryPostings update every per-version list without
// re-sorting it.
func (w *WSD) splice(drop map[int32]bool, added []component) {
	old := w.comps
	keys := make([]dispKey, len(added))
	for i := range added {
		keys[i] = w.dispKeyOf(&added[i])
	}
	ord := make([]int, len(added))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool { return keys[ord[i]].compare(keys[ord[j]]) < 0 })

	surv := make([]int32, 0, len(old))
	for ci := range old {
		if !drop[int32(ci)] {
			surv = append(surv, int32(ci))
		}
	}
	w.obsCost.Add(obs.UpdateTouchedComponents, int64(len(old)-len(surv)))
	w.obsCost.Add(obs.UpdateSurvivorComponents, int64(len(surv)))

	comps := make([]component, 0, len(surv)+len(added))
	remap := make([]int32, len(old))
	for ci := range remap {
		remap[ci] = -1
	}
	sorted := make([]component, len(added))
	addedAt := make([]int32, len(added))
	next := 0 // survivors surv[:next] are placed
	for k, o := range ord {
		// The added keys ascend, so each search starts where the last
		// one ended.
		at := next + sort.Search(len(surv)-next, func(i int) bool {
			return keys[o].compare(w.dispKeyOf(&old[surv[next+i]])) < 0
		})
		for ; next < at; next++ {
			remap[surv[next]] = int32(len(comps))
			comps = append(comps, old[surv[next]])
		}
		sorted[k] = added[o]
		addedAt[k] = int32(len(comps))
		comps = append(comps, added[o])
	}
	for ; next < len(surv); next++ {
		remap[surv[next]] = int32(len(comps))
		comps = append(comps, old[surv[next]])
	}
	w.comps = comps
	w.patchDerived(old, remap, sorted, addedAt)
}

// finishComponent builds a fresh tuple-level component: alternatives in
// display-canonical order plus the fingerprint index. Alternative ID
// lists are shared with the caller (never mutated).
func (w *WSD) finishComponent(alts [][]int32) component {
	keys := make([][]int32, len(alts))
	for i, alt := range alts {
		k := append([]int32(nil), alt...)
		sort.Slice(k, func(a, b int) bool { return w.factLess(k[a], k[b]) })
		keys[i] = k
	}
	ord := make([]int, len(alts))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return w.altDisplayLess(keys[ord[a]], keys[ord[b]]) })
	sorted := make([][]int32, len(alts))
	for i, o := range ord {
		sorted[i] = alts[o]
	}
	c := component{alts: sorted, altIndex: make(map[uint64][]int32, len(sorted))}
	for ai, alt := range sorted {
		h := altHash(alt)
		c.altIndex[h] = append(c.altIndex[h], int32(ai))
	}
	return c
}

// altDisplayLess orders display-sorted alternative fact lists by
// length, then lexicographically by fact display order — the order
// compareAlts produces when fact IDs are display-canonical.
func (w *WSD) altDisplayLess(a, b []int32) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return w.factLess(a[i], b[i])
		}
	}
	return false
}

// patchDerived brings the derived state of the previous component list
// old up to date with the spliced one: remap sends each old component
// index to its new index (-1: dropped) and is monotone, and added[k]
// now sits at index addedAt[k] (ascending). factComp, certain,
// attrByRel and the hole count are the parent's, mapped through remap,
// plus the added components' facts — a flat pass over the arrays
// instead of a walk of every alternative. Facts no longer in any
// component become holes. Certainty needs no counting: after the local
// split, a multi-alternative component has no all-alternative fact, so
// the certain facts are exactly the facts of the single-alternative
// component. The arrays are written fresh, never in place: the parent
// snapshot may share them.
func (w *WSD) patchDerived(old []component, remap []int32, added []component, addedAt []int32) {
	factComp := make([]int32, len(w.facts))
	certain := make([]bool, len(w.facts))
	copy(certain, w.certain)
	holes := w.holes + len(w.facts) - len(w.factComp) // new facts start as holes
	for f, ci := range w.factComp {
		if ci < 0 {
			factComp[f] = -1
			continue
		}
		if factComp[f] = remap[ci]; factComp[f] < 0 {
			certain[f] = false
			holes++
		}
	}
	for f := len(w.factComp); f < len(factComp); f++ {
		factComp[f] = -1
	}
	for k := range added {
		c := &added[k]
		if c.attr != nil {
			continue
		}
		isCertain := len(c.alts) == 1
		for _, alt := range c.alts {
			for _, f := range alt {
				if factComp[f] < 0 {
					holes--
				}
				factComp[f] = addedAt[k]
				certain[f] = isCertain
			}
		}
	}
	var attrByRel map[int32][]int32 // nil when no relation has templates, as buildIndexes leaves it
	bucket := func(r int32) {
		if _, done := attrByRel[r]; done {
			return
		}
		if b := remapSorted(w.attrByRel[r], remap, addedTemplates(added, addedAt, r)); len(b) > 0 {
			if attrByRel == nil {
				attrByRel = make(map[int32][]int32)
			}
			attrByRel[r] = b
		}
	}
	for r := range w.attrByRel {
		bucket(r)
	}
	for k := range added {
		if a := added[k].attr; a != nil {
			bucket(a.rel)
		}
	}
	w.factComp, w.certain, w.attrByRel, w.holes = factComp, certain, attrByRel, holes
	w.factsLoose = true
	w.post.Store(w.carryPostings(w.post.Load(), old, remap, added, addedAt))
	w.axes.Store(nil)
}

// addedTemplates returns the new indices of the added templates over
// relation r, ascending.
func addedTemplates(added []component, addedAt []int32, r int32) []int32 {
	var out []int32
	for k := range added {
		if a := added[k].attr; a != nil && a.rel == r {
			out = append(out, addedAt[k])
		}
	}
	return out
}

// remapSorted maps an ascending list of old component indices through
// the monotone remap, dropping removed ones, and merges in the
// ascending list of added indices. The result is ascending and fresh.
func remapSorted(list, remap, add []int32) []int32 {
	out := make([]int32, 0, len(list)+len(add))
	for _, ci := range list {
		nc := remap[ci]
		if nc < 0 {
			continue
		}
		for len(add) > 0 && add[0] < nc {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, nc)
	}
	return append(out, add...)
}
