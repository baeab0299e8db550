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
// from it while the update builds its successor.
//
// The install costs what the update touches. Component IDs are stable:
// survivors keep theirs, a rewritten component keeps its ID, other
// added components take a dropped ID or a fresh one above every
// existing ID, and dropped IDs nobody takes become tombstones, so
// nothing is renumbered. Every per-version structure is the parent's
// plus the write's delta (store.go): the component store, the fact
// table and the per-fact state are chunked copy-on-write arrays, of
// which a write copies the chunks it touches; the fact index, the
// template and relation lists and the built column postings keep their
// base and record the change. The display order is not maintained at
// all: the few positional readers (printing, World, Sample) build it on
// first use.
//
// The incremental result satisfies every normalized invariant the query
// methods rely on (distinct alternatives, disjoint supports, factoring
// by the local step Normalize runs, at most one certain component) and
// prints identically to a from-scratch Normalize of the same
// components (ApplyUpdateFull); only its internal fact IDs are not
// display-ordered. Deleted facts leave holes in the shared
// table (they cannot be removed without breaking the snapshot); the
// query paths treat a fact without a component as outside the support,
// and ApplyUpdate compacts the table once holes outnumber live facts —
// or tombstones the live components.
package wsd

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"pw/internal/obs"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/unionfind"
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
		if err := out.applyOp(&u.Ops[i]); err != nil {
			return nil, err
		}
	}
	// Deleted facts accumulate as holes in the shared table and dropped
	// components as tombstones in the store; once either outnumbers the
	// live entries, pay for one canonical rebuild so a long-running
	// update stream cannot leak. Normalization of an already-valid
	// decomposition cannot hit the merge guard; if it ever errored the
	// uncompacted successor is returned.
	dead := len(out.free)
	if (out.holes > 64 && out.holes > out.facts.len()-out.holes) || (dead > 64 && dead > out.live) {
		if c := out.Clone(); c.rebuild(nil, nil) == nil {
			c.count.Store(out.count.Load()) // the same world set
			c.countText.Store(out.countText.Load())
			out = c
		}
	}
	out.obsCost = nil
	return out, nil
}

// ApplyUpdateFull is the reference implementation: a deep clone, then
// for every operation the plan ApplyUpdate makes, installed by a
// from-scratch Normalize of the whole decomposition (rebuild) instead
// of the incremental closure and install. It exists for the
// differential and property tests (the incremental path must produce
// the identical canonical form) and as the benchmark baseline that the
// incremental path is measured against.
func (w *WSD) ApplyUpdateFull(u *Update) (*WSD, error) {
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	out := w.Clone()
	for i := range u.Ops {
		var p opPlan
		err := out.plan(&u.Ops[i], &p)
		switch {
		case err != nil:
		case p.empty:
			out.clearToEmpty()
		case !p.noop:
			err = out.rebuild(p.drop, p.groups)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// snapshotClone returns the copy the incremental path mutates. It
// shares everything with the receiver: the chunked arrays are forked
// (a write copies the chunks it touches), the fact index, the template
// lists and the posting index are shared as immutable bases, and every
// component is shared by value. The update engine treats every shared
// structure as immutable: an install writes fresh components into
// forked chunks, intern adds to its own copy of the fact index delta
// (cowFacts), and the template lists and the carried posting index are
// replaced, never edited (carryPostings). An update that installs
// nothing — every operation a no-op — therefore shares the parent's
// posting index; both versions hold the same components, so a column
// either one builds is valid for the other.
func (w *WSD) snapshotClone() *WSD {
	c := &WSD{
		schema:      w.schema,
		schemaIdx:   w.schemaIdx,
		facts:       w.facts.fork(),
		factIndex:   w.factIndex,
		factDelta:   w.factDelta,
		indexShared: true,
		factsShared: true,
		comps:       w.comps.fork(),
		live:        w.live,
		empty:       w.empty,
		normalized:  true,
		factState:   w.factState.fork(),
		certainComp: w.certainComp,
		attrByRel:   w.attrByRel,
		free:        w.free,
		units:       w.units,
		altFacts:    w.altFacts,
		dense:       w.dense,
		holes:       w.holes,
		factsLoose:  w.factsLoose,
	}
	c.order.Store(w.order.Load())
	c.post.Store(w.post.Load())
	c.count.Store(w.count.Load())
	c.countText.Store(w.countText.Load())
	return c
}

// cowFacts un-shares the fact index delta before the first intern into
// a snapshot clone (copy-on-write); the fact table itself is chunked.
func (w *WSD) cowFacts() {
	if !w.factsShared {
		return
	}
	w.factDelta = w.factDelta.clone()
	w.factsShared = false
	w.obsCost.Add(obs.UpdateCOWUnshares, 1)
}

// opPlan is the outcome of planning one operation: either a trivial
// verdict, or a set of components to drop (ascending) and the raw
// (pre-renorm) alternative lists replacing them.
type opPlan struct {
	noop   bool
	empty  bool
	drop   []int32
	groups [][][]int32
}

// applyOp plans one operation and installs it incrementally.
func (w *WSD) applyOp(op *UpdateOp) error {
	var p opPlan
	err := w.plan(op, &p)
	switch {
	case err != nil:
		return err
	case p.empty:
		w.clearToEmpty()
	case !p.noop:
		err = w.installIncremental(&p)
	}
	if err == nil && !w.empty {
		w.padDerived()
	}
	return err
}

// plan validates one operation and plans it into p; on ∅ every
// operation is a no-op.
func (w *WSD) plan(op *UpdateOp, p *opPlan) error {
	ri, err := w.opRelIndex(op)
	if err != nil {
		return err
	}
	if w.empty {
		p.noop = true
		return nil
	}
	switch op.Kind {
	case OpInsert:
		return w.planInsert(ri, op, p)
	case OpDelete, OpSet:
		return w.planRewrite(ri, op, p)
	case OpAssume:
		return w.planAssume(ri, op, true, p)
	case OpAssumeNot:
		return w.planAssume(ri, op, false, p)
	}
	return fmt.Errorf("wsd: unknown update op kind %d", int(op.Kind))
}

// padDerived extends the per-fact arrays over the facts interned since
// they were derived: a fact no installed component holds is a hole.
func (w *WSD) padDerived() {
	for n := w.facts.len(); w.factState.len() < n; w.holes++ {
		w.factState.push(factState{comp: -1})
	}
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
	if id, ok := w.lookup(ri, t); ok && w.compOf(id) >= 0 {
		if w.isCertain(id) {
			p.noop = true
			return nil
		}
		ci := w.compOf(id)
		c := w.comp(int(ci))
		alts := make([][]int32, len(c.alts))
		for i, alt := range c.alts {
			alts[i] = insertSorted(alt, id)
		}
		p.drop = []int32{ci}
		p.groups = [][][]int32{alts}
		return nil
	}
	if ci, ok := w.attrOwner(ri, t); ok {
		alts, err := w.expandAttr(w.comp(int(ci)).attr)
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
		if sid, ok := w.lookup(ri, t); ok && w.compOf(sid) >= 0 {
			id, ci = sid, w.compOf(sid)
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
	c := w.comp(int(ci))
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
	if w.isCertain(id) {
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
// whose support matches the pattern (rewriteTargets) is rewritten
// alternative-wise. Conditional updates may intern new facts;
// collisions with other components' supports are resolved by the
// install's overlap merge.
func (w *WSD) planRewrite(ri int32, op *UpdateOp, p *opPlan) error {
	pat, live := resolveArgsPattern(op.Args)
	if !live {
		p.noop = true
		return nil
	}
	var assigns []SlotAssign
	if op.Kind == OpSet {
		assigns = op.Set
	}
	order := w.rewriteTargets(ri, pat)
	if len(order) == 0 {
		p.noop = true
		return nil
	}
	for _, ci := range order {
		c := w.comp(int(ci))
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
	var comps, tmpls []int32
	probed := false
	for j, wild := range pat.anys {
		if wild {
			continue
		}
		comps = w.column(p, int(ri), j, false).lookup(pat.slots[j])
		if w.tmplsOf(ri).len() > 0 {
			tmpls = w.column(p, int(ri), j, true).lookup(pat.slots[j])
		}
		probed = true
		break
	}
	if !probed {
		comps, tmpls = p.rels[ri].comps.view(), w.tmplsOf(ri).view()
	}
	var out []int32
	for _, ci := range comps {
		if w.holdsMatch(w.comp(int(ci)), ri, pat) {
			out = append(out, ci)
		}
	}
	for _, ci := range tmpls {
		if pat.matchesTemplate(w.comp(int(ci)).attr) {
			out = append(out, ci)
		}
	}
	slices.Sort(out)
	return out
}

// holdsMatch reports whether some alternative of a tuple-level
// component holds a fact of relation ri matching the pattern.
func (w *WSD) holdsMatch(c *component, ri int32, pat symPattern) bool {
	for _, alt := range c.alts {
		for _, id := range alt {
			if f := w.fact(id); f.rel == ri && pat.matches(f.tuple) {
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
		f := w.fact(id)
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

// rebuild replaces the components in drop (ascending) with the added
// alternative lists and re-normalizes every component from scratch:
// Normalize over the whole decomposition as one batch. It is the
// install of the reference path (ApplyUpdateFull) and, with nothing
// dropped or added, the compaction of ApplyUpdate. Normalize rewrites
// the components in place, so w must own them (a Clone).
func (w *WSD) rebuild(drop []int32, added [][][]int32) error {
	comps := make([]component, 0, w.live+len(added))
	w.comps.each(func(ci int, c *component) bool {
		switch {
		case len(drop) > 0 && drop[0] == int32(ci):
			drop = drop[1:]
		case !c.dead():
			comps = append(comps, *c)
		}
		return true
	})
	for _, alts := range added {
		comps = append(comps, component{alts: alts})
	}
	w.pending, w.normalized = comps, false
	return w.Normalize()
}

// installIncremental re-establishes the normalized invariants touching
// only the plan's groups. Its overlap closure pulls in any component
// whose support a rewritten fact collided with; the local step
// (localStep, the one Normalize runs) merges and re-factors each class;
// new certain facts join the certain component; and install puts the
// result in place under stable IDs — a rewritten component keeps its
// ID — with the dropped IDs nobody takes left as tombstones. Untouched
// components keep their IDs and their storage.
//
// The closure is the write path's own front-end, not Normalize's
// overlapClasses: that one indexes every component of the batch
// through a dense array over the whole fact table, while this one
// walks only the groups' facts and finds their owners in the derived
// state (compOf) and the owner-column postings (attrOwner), so a write
// allocates nothing proportional to the decomposition.
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
	slots := make([]component, len(p.groups))
	hint := 0 // each group's longest alternative: a lower bound on its distinct facts
	for i, g := range p.groups {
		slots[i].alts = dedupAlts(g)
		m := 0
		for _, alt := range slots[i].alts {
			m = max(m, len(alt))
		}
		hint += m
	}
	uf := unionfind.NewDense(len(slots))
	pull := func(qi int, ci int32, alts [][]int32) {
		drop[ci] = true
		slots = append(slots, component{alts: alts})
		uf.Grow(len(slots))
		uf.Union(int32(qi), int32(len(slots)-1))
	}
	factGroup := make(map[int32]int, hint)
	for qi := 0; qi < len(slots); qi++ {
		for _, alt := range slots[qi].alts {
			for _, f := range alt {
				if g, seen := factGroup[f]; seen {
					uf.Union(int32(qi), int32(g))
				} else {
					factGroup[f] = qi
				}
				if ci := w.compOf(f); ci >= 0 && !drop[ci] {
					pull(qi, ci, w.comp(int(ci)).alts)
				}
				// A template that can instantiate the fact owns it: at most
				// one does (supports are disjoint), found through the
				// relation's owner-column posting.
				sf := w.fact(f)
				if ci, ok := w.attrOwner(sf.rel, sf.tuple); ok && !drop[ci] {
					alts, err := w.expandAttr(w.comp(int(ci)).attr)
					if err != nil {
						return err
					}
					pull(qi, ci, alts)
				}
			}
		}
	}

	comps, certain, err := w.localStep(slots, classesOf(uf))
	if err != nil || w.empty {
		return err
	}
	// Fold new certain facts into the (single) certain component.
	if len(certain) > 0 {
		if ci := w.certainComp; ci >= 0 && !drop[ci] {
			drop[ci] = true
			certain = append(certain, w.comp(int(ci)).alts[0]...)
		}
		comps = append(comps, component{alts: [][]int32{sortDedupIDs(certain)}})
	}
	for i := range comps {
		if comps[i].attr == nil {
			comps[i] = w.finishComponent(comps[i].alts)
		}
	}
	w.install(drop, comps)
	return nil
}

// install replaces the components in drop with the added ones. IDs are
// stable: an added component takes over the ID of the dropped component
// its first fact came from (a rewritten component keeps its ID), else
// the smallest spare ID — a dropped one nobody took, or a tombstone —
// else a fresh one; dropped IDs nobody takes become tombstones. Every
// piece of derived state takes the delta — the per-fact state of the
// dropped and added components' facts, the hole count, the certain
// component, the template lists, the choice-axis and fact totals, the
// world count and the posting index (carryPostings). Certainty needs
// no counting: after the local split, a multi-alternative component
// has no all-alternative fact, so the certain facts are exactly the
// facts of the single-alternative component.
func (w *WSD) install(drop map[int32]bool, added []component) {
	w.obsCost.Add(obs.UpdateTouchedComponents, int64(len(drop)))
	w.obsCost.Add(obs.UpdateSurvivorComponents, int64(w.live-len(drop)))

	// Carry the world count by delta: survivors keep their alternative
	// counts, so the new count is the old one times the added
	// components' counts over the dropped ones' — exact, since the
	// dropped counts divide the old product. An unchanged count keeps the
	// old value itself, so its memoized text (CountString) stays valid.
	var count *big.Int
	if old := w.count.Load(); old != nil {
		if count = w.carryCount(old, drop, added); count.Cmp(old) == 0 {
			count = old
		}
	}
	w.padDerived()

	// Assign IDs while the per-fact state still names the predecessors.
	ids := make([]int32, 0, len(drop))
	for ci := range drop {
		ids = append(ids, ci)
	}
	slices.Sort(ids)
	taken := make([]bool, len(ids))
	at := make([]int32, len(added))
	for k := range added {
		at[k] = -1
		if alts := added[k].alts; len(alts) > 0 && len(alts[len(alts)-1]) > 0 {
			if i, ok := slices.BinarySearch(ids, w.compOf(alts[len(alts)-1][0])); ok && !taken[i] {
				at[k], taken[i] = ids[i], true
			}
		}
	}
	// The rest take spare IDs — dropped ones nobody took, then
	// tombstones, smallest first — or fresh ones; spares left over are
	// the successor's tombstones.
	spare := w.free // shared with the parent: read, never written
	for i, ci := range ids {
		if !taken[i] {
			spare = insertID(slices.Clip(spare), ci)
		}
	}
	for k := range added {
		switch {
		case at[k] >= 0:
		case len(spare) > 0:
			at[k], spare = spare[0], spare[1:]
		default:
			at[k] = int32(w.comps.push(component{}))
		}
	}
	w.free = spare

	// The changes, by ID: each dropped ID with its old component (copied:
	// the slot is overwritten) and what replaces it, then the IDs that
	// held no component.
	changes := make([]compChange, 0, len(ids)+len(added))
	olds := make([]component, len(ids))
	for i, ci := range ids {
		olds[i] = *w.comp(int(ci))
		changes = append(changes, compChange{id: ci, old: &olds[i]})
	}
	for k := range added {
		if i, ok := slices.BinarySearch(ids, at[k]); ok {
			changes[i].new = &added[k]
			continue
		}
		changes = append(changes, compChange{id: at[k], new: &added[k]})
	}

	// Facts of the old components leave the support; facts of the new
	// ones then (re-)enter it under their component's ID.
	tmplsChanged := false
	for _, ch := range changes {
		if c := ch.old; c != nil {
			w.units -= c.units()
			tmplsChanged = tmplsChanged || c.attr != nil
			for _, alt := range c.alts {
				w.altFacts -= int64(len(alt))
				for _, f := range alt {
					if w.compOf(f) >= 0 {
						w.factState.set(int(f), factState{comp: -1})
						w.holes++
					}
				}
			}
			if ch.id == w.certainComp {
				w.certainComp = -1
			}
		}
	}
	for _, ch := range changes {
		c := ch.new
		if c == nil {
			w.comps.set(int(ch.id), component{})
			w.live--
			continue
		}
		w.comps.set(int(ch.id), *c)
		if ch.old == nil {
			w.live++
		}
		w.units += c.units()
		tmplsChanged = tmplsChanged || c.attr != nil
		isCertain := c.attr == nil && len(c.alts) == 1
		if isCertain {
			w.certainComp = ch.id
		}
		for _, alt := range c.alts {
			w.altFacts += int64(len(alt))
			for _, f := range alt {
				if w.compOf(f) < 0 {
					w.holes--
				}
				w.factState.set(int(f), factState{comp: ch.id, certain: isCertain})
			}
		}
	}
	if tmplsChanged {
		w.attrByRel = w.carryTemplates(changes)
	}
	w.dense, w.factsLoose = false, true
	w.order.Store(nil)
	w.count.Store(count)
	w.post.Store(w.carryPostings(w.post.Load(), changes))
}

// carryTemplates returns the template lists with the install's changes
// applied: per relation, the IDs that stopped being one of its
// templates removed and those that started added.
func (w *WSD) carryTemplates(changes []compChange) []idList {
	lists := make([]idList, len(w.schema))
	for ri := range lists {
		rel := int32(ri)
		var rem, add []int32
		for _, ch := range changes {
			was, is := templateOf(ch.old, rel), templateOf(ch.new, rel)
			switch {
			case was && !is:
				rem = append(rem, ch.id)
			case is && !was:
				add = append(add, ch.id)
			}
		}
		lists[ri] = w.tmplsOf(rel).with(rem, add)
	}
	return lists
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
		scale(&den, w.comp(int(ci)))
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
		d.Mul(d, w.comp(int(ci)).bigCount())
	}
	return count.Quo(count, d)
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
