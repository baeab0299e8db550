package table

import (
	"slices"
	"strconv"
	"strings"

	"pw/internal/rel"
	"pw/internal/sym"
)

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

// Freeze replaces every variable x occurring in the database by a fresh
// constant a_x (the K₀ construction in the claim of Theorem 4.1). The
// prefix must be chosen outside the active domains of every database
// involved in the surrounding decision problem; FreshPrefixIDs does this.
// Freeze ignores conditions: callers normalize first so that all equality
// information is incorporated and the residual inequalities are satisfied
// by distinct fresh constants.
func Freeze(d *Database, prefix string) *rel.Instance {
	vars := d.VarIDs(nil, map[sym.ID]bool{})
	sym.SortByName(vars)
	// a_x is prefix followed by x's rank in name order. The names are
	// written back to back into one buffer and resolved in one batch;
	// fresh[i] is the constant of vars[i].
	buf := make([]byte, 0, len(vars)*(len(prefix)+4))
	names := make([][]byte, len(vars))
	for i := range vars {
		start := len(buf)
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
		names[i] = buf[start:]
	}
	fresh := sym.AppendConsts(make([]sym.ID, 0, len(vars)), names)
	inst := rel.NewInstance()
	var scratch sym.Tuple
	for _, t := range d.tables {
		r := rel.NewRelation(t.Name, t.Arity)
		r.Grow(len(t.Rows))
		for _, row := range t.Rows {
			if cap(scratch) < len(row.Values) {
				scratch = make(sym.Tuple, len(row.Values))
			}
			f := scratch[:len(row.Values)]
			for j, v := range row.Values {
				if v.IsVar() {
					i, _ := slices.BinarySearchFunc(vars, v.ID(), sym.Compare)
					f[j] = fresh[i]
				} else {
					f[j] = v.ID()
				}
			}
			r.Insert(f)
		}
		inst.AddRelation(r)
	}
	return inst
}

// FreshPrefixIDs returns a constant-name prefix that no constant in any
// of the given pools starts with: "~z" extended with "z"s until nothing
// clashes. Constant names produced by the library never start with '~'
// unless they came from a previous fresh prefix, so one or two rounds
// suffice. It resolves names only for the clash check, never allocating
// keys per symbol.
func FreshPrefixIDs(pools ...[]sym.ID) string {
	prefix := "~z"
	for slices.ContainsFunc(pools, func(pool []sym.ID) bool {
		return slices.ContainsFunc(pool, func(id sym.ID) bool { return strings.HasPrefix(id.Name(), prefix) })
	}) {
		prefix += "z"
	}
	return prefix
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
