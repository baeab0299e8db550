package decide

import (
	"sync/atomic"

	"pw/internal/cond"
	"pw/internal/eqlogic"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// Uniqueness decides UNIQ(q0): is q0(rep(d0)) the singleton {i}? Dispatch:
//
//   - q0 liftable (identity or positive existential, with or without ≠):
//     the view is first rewritten into a c-table database and the identity
//     procedure below runs on it. For g-tables this specialises to the
//     normalize-and-compare algorithm of Theorem 3.2(1); for positive
//     existential views of e-tables the run is polynomial as in Theorem
//     3.2(2) (the equality-logic systems involved stay Horn-like);
//     in general it is the coNP procedure matching Theorem 3.2(3,4).
//   - otherwise (first-order, DATALOG): exhaustive comparison of every
//     world's image with i.
func (o Options) Uniqueness(q0 query.Query, d0 *table.Database, i *rel.Instance) (bool, error) {
	if l, ok := query.AsLiftable(q0); ok {
		lifted, err := l.EvalLifted(d0)
		if err != nil {
			return false, err
		}
		return o.uniqueIdentity(lifted, i)
	}
	return o.uniqueGeneric(q0, d0, i)
}

// uniqueIdentity decides rep(d) = {i} via three checks:
//
//	(m) i ∈ rep(d)                        — membership;
//	(a) no row can produce a fact ∉ i     — rowEscapes;
//	(b) no world misses a fact of i       — factOmittable per fact.
//
// rep(d) = {i} iff (m) ∧ ¬(a) ∧ ¬(b): any world W ≠ i either contains a
// fact outside i (case a, with some row producing it) or lacks a fact of i
// (case b). Checks (a) is polynomial; (m) and (b) invoke the NP machinery,
// making the whole a coNP-style procedure, as Theorem 3.2(3) requires.
func (o Options) uniqueIdentity(d *table.Database, i *rel.Instance) (bool, error) {
	if err := SchemaCheck(i, d); err != nil {
		return false, err
	}
	c := d.Compiled()
	nd := c.Norm
	if nd == nil {
		return false, nil // rep(d) = ∅ ≠ {i}
	}
	// Fast path of Theorem 3.2(1): a g-table (no local conditions) is
	// unique iff its normalized matrix is ground and equals i.
	if !c.NormLocal {
		return groundEquals(c, i), nil
	}
	if rowEscapes(nd, i) {
		return false, nil
	}
	// Check (b) is one independent equality-logic refutation per fact of
	// i — fanned out across the pool, first omittable fact cancelling the
	// rest (the coNP cell's "first counterexample wins").
	if omittableFact(nd, i, o.workers()) {
		return false, nil
	}
	// No row ever escapes i and no fact of i is ever omitted, so every
	// world equals i exactly; normalization succeeded, so worlds exist.
	return true, nil
}

// factRef names one fact of an instance within its database table.
type factRef struct {
	t *table.Table
	u sym.Tuple
}

// factRefs flattens the facts of i (restricted to the tables of d) into
// one slice for the per-fact fan-outs of UNIQ and CERT.
func factRefs(d *table.Database, i *rel.Instance) []factRef {
	var out []factRef
	for _, t := range d.Tables() {
		r := i.Relation(t.Name)
		if r == nil {
			continue
		}
		for _, u := range r.Tuples() {
			out = append(out, factRef{t: t, u: u})
		}
	}
	return out
}

// omittableFact reports whether some fact of i can be omitted by some
// world of d, checking facts across the worker pool with early exit.
func omittableFact(d *table.Database, i *rel.Instance, workers int) bool {
	refs := factRefs(d, i)
	return anyIndex(workers, len(refs), func(k int) bool {
		return factOmittable(d, refs[k].t, refs[k].u)
	})
}

// groundEquals implements the core of Theorem 3.2(1): after normalization
// a local-condition-free database represents exactly {i} iff every row is
// ground and the resulting instance equals i. (A surviving variable ranges
// over infinitely many constants — the residual global inequalities
// exclude only finitely many — so it always produces a second world.)
// i has the database's schema (SchemaCheck), so equality is two
// inclusions per table, both lookups: every row is a fact of i, and
// every fact of i is a row, found through the row index.
func groundEquals(c *table.Compiled, i *rel.Instance) bool {
	for _, t := range c.Norm.Tables() {
		ix := c.Index(t.Name)
		if !ix.AllGround() {
			return false
		}
		r := i.Relation(t.Name)
		for _, row := range t.Rows {
			if !r.Contains(row.Values) {
				return false
			}
		}
		for _, u := range r.Tuples() {
			if !ix.HasGround(u) {
				return false
			}
		}
	}
	return true
}

// rowEscapes reports whether some valuation makes some row produce a fact
// outside i: for a row t with satisfiable φ_G ∧ φ_t, apply the implied
// bindings; a non-ground result escapes (infinitely many instantiations,
// finitely many facts in i), a ground result escapes iff it is not in i.
// This check is polynomial.
func rowEscapes(d *table.Database, i *rel.Instance) bool {
	g := d.GlobalConjunction()
	var scratch sym.Tuple
	for _, t := range d.Tables() {
		r := i.Relation(t.Name)
		for _, row := range t.Rows {
			all := g.And(row.Cond)
			sub, ok := all.ImpliedBindings()
			if !ok {
				continue // row can never fire
			}
			ground := true
			if cap(scratch) < len(row.Values) {
				scratch = make(sym.Tuple, len(row.Values))
			}
			f := scratch[:len(row.Values)]
			for j, v := range row.Values {
				w := v
				if v.IsVar() {
					if b, bound := sub[v]; bound {
						w = b
					}
				}
				if w.IsVar() {
					ground = false
					break
				}
				f[j] = w
			}
			if !ground || !r.Contains(f) {
				return true
			}
		}
	}
	return false
}

// factOmittable reports whether some valuation satisfying the global
// condition produces no copy of fact u from any row of table t: the
// equality-logic system requires φ_G and, for every row, the failure of
// (φ_row ∧ row = u).
func factOmittable(d *table.Database, t *table.Table, u sym.Tuple) bool {
	p := &eqlogic.Problem{}
	p.RequireAll(d.GlobalConjunction())
	for _, row := range t.Rows {
		c := append(make(cond.Conjunction, 0, len(row.Cond)+len(u)), row.Cond...)
		p.Forbid(bindAtoms(c, row.Values, u))
	}
	return p.Satisfiable()
}

// uniqueGeneric exhaustively checks q0(rep(d0)) = {i} over Δ ∪ Δ′. The
// universal question runs as a sharded search for the first differing
// world — the dual early-exit: a counterexample in any shard cancels all
// others.
func (o Options) uniqueGeneric(q0 query.Query, d0 *table.Database, i *rel.Instance) (bool, error) {
	var sawWorld atomic.Bool
	diff, err := o.anyImage(d0, q0, i, func(out *rel.Instance) bool {
		sawWorld.Store(true)
		return !out.Equal(i)
	})
	// Every world's image equals i; rep must also be non-empty.
	return !diff && err == nil && sawWorld.Load(), err
}
