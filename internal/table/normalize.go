package table

import "pw/internal/rel"

// Normalize incorporates the equalities implied by the global condition
// into the rows (the preprocessing step of Theorem 3.2(1): a variable
// forced equal to a constant is replaced by that constant; variables forced
// equal to each other are merged to one representative) and leaves only the
// residual inequality atoms in the global condition. The second return
// value is false when the global condition is unsatisfiable, in which case
// rep(d) = ∅ and the returned database is nil.
//
// Local conditions are substituted through but otherwise untouched; a
// c-table stays a c-table, a g-table becomes a table-with-inequalities
// (i-table, possibly with repeated variables folded away).
func Normalize(d *Database) (*Database, bool) {
	g := d.GlobalConjunction()
	if len(g) == 0 {
		// Nothing to incorporate: the normalized database is d itself,
		// returned aliased (not copied) — this keeps the per-call cost of
		// the matching/freeze decision paths independent of table size
		// when no global condition is attached. Callers must treat the
		// result as read-only; the public pw.Normalize façade restores
		// the always-independent-copy contract by cloning on alias.
		return d, true
	}
	sub, ok := g.ImpliedBindings()
	if !ok {
		return nil, false
	}
	residual, _ := g.Residual()
	if !residual.Satisfiable() {
		return nil, false
	}
	out := NewDatabase()
	for i, t := range d.tables {
		nt := t.Subst(sub)
		nt.Global = nil
		if i == 0 {
			nt.Global = residual
		}
		out.AddTable(nt)
	}
	return out, true
}

// EmptyInstance returns the instance with the database's schema and no
// facts (the representative produced by valuations that satisfy the global
// condition but no local condition).
func (d *Database) EmptyInstance() *rel.Instance {
	inst := rel.NewInstance()
	for _, t := range d.tables {
		inst.AddRelation(rel.NewRelation(t.Name, t.Arity))
	}
	return inst
}
