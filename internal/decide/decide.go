// Package decide implements the five decision problems of §2.3 —
// membership (MEMB), uniqueness (UNIQ), containment (CONT), possibility
// (POSS) and certainty (CERT) — over the representation hierarchy of
// internal/table and the query fragments of internal/query.
//
// Each procedure dispatches on the syntactic class of its inputs, exactly
// following the paper's classification (Fig. 2):
//
//   - the PTIME cells run the paper's polynomial algorithms (bipartite
//     matching for MEMB on Codd-tables, Theorem 3.1(1); normalization for
//     UNIQ on g-tables, Theorem 3.2(1); the freeze claim for CONT of
//     g-tables in e-tables, Theorem 4.1(2,3); lifted-algebra possibility,
//     Theorem 5.2(1); frozen-instance certainty, Theorem 5.3(1));
//   - the NP/coNP/Π₂ᵖ cells run backtracking searches over row↔fact
//     assignments whose residual constraints are discharged by
//     internal/eqlogic, with worst-case exponential time as the paper's
//     completeness results require, but far better behaviour than the
//     brute-force valuation enumeration of internal/worlds (ablation A2).
//
// All row↔fact unification, binding bookkeeping and fact comparison run on
// interned symbol IDs (internal/sym); strings never enter these paths.
//
// What a decision needs of the database alone — its normal form, that
// form's kind, and per table a row-pattern index — comes from the
// database's compiled form (table.Database.Compiled), built by the first
// decision and reused by every later one. The matching builds and the
// search candidate lists take each fact's candidate rows from the index
// and confirm them with rowMatchesFact, so they see exactly the rows an
// n·m sweep would, in the same order, without running it.
package decide

import (
	"fmt"

	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// SchemaCheck verifies that the instance provides exactly one relation per
// table of d, with matching arities.
func SchemaCheck(i *rel.Instance, d *table.Database) error {
	if len(i.Relations()) != len(d.Tables()) {
		return fmt.Errorf("decide: instance has %d relations, database has %d tables",
			len(i.Relations()), len(d.Tables()))
	}
	for _, t := range d.Tables() {
		r := i.Relation(t.Name)
		if r == nil {
			return fmt.Errorf("decide: instance lacks relation %s", t.Name)
		}
		if r.Arity != t.Arity {
			return fmt.Errorf("decide: relation %s has arity %d, table expects %d",
				t.Name, r.Arity, t.Arity)
		}
	}
	return nil
}

// factsCheck verifies that every relation of the fact set p names a table
// of d with the right arity (p may omit relations).
func factsCheck(p *rel.Instance, d *table.Database) error {
	for _, r := range p.Relations() {
		t := d.Table(r.Name)
		if t == nil {
			return fmt.Errorf("decide: fact set names unknown relation %s", r.Name)
		}
		if t.Arity != r.Arity {
			return fmt.Errorf("decide: fact set relation %s has arity %d, table expects %d",
				r.Name, r.Arity, t.Arity)
		}
	}
	return nil
}

// anyImage reports whether pred holds of q(σ(d)) for some valuation σ
// over the Δ ∪ Δ′ of d, q and inst: the Proposition 2.1 search of the
// generic cells, sharded across the pool. The first hit, or the first
// evaluation error, cancels the remaining shards.
func (o Options) anyImage(d *table.Database, q query.Query, inst *rel.Instance, pred func(*rel.Instance) bool) (bool, error) {
	delta := table.NewDelta(q.Consts(), []*table.Database{d}, inst)
	var evalErr errOnce
	found := o.enumerate(d.Universe(), delta, func(v valuation.V) bool {
		w := v.Database(d)
		if w == nil {
			return false
		}
		out, err := q.Eval(w)
		if err != nil {
			evalErr.set(err)
			return true
		}
		return pred(out)
	})
	if err := evalErr.get(); err != nil {
		return false, err
	}
	return found, nil
}

// bindAtoms appends to dst the equality atoms equating row values with
// the components of a ground fact: a row's unification with the fact,
// pushed onto a search's solver or forbidden in an equality-logic system.
func bindAtoms(dst cond.Conjunction, vals sym.Tuple, f sym.Tuple) cond.Conjunction {
	for i, v := range vals {
		dst = append(dst, cond.EqAtom(v, f[i]))
	}
	return dst
}
