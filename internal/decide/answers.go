package decide

import (
	"fmt"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
)

// CertainAnswers computes the set of certain facts of q(rep(d)) — the
// facts present in every world — for a liftable (positive existential,
// possibly with ≠) query.
//
// The candidate set comes from one distinguished world: freeze every
// variable of the normalized lifted database to a distinct fresh constant
// (this valuation satisfies the residual global inequalities, so it
// denotes a world). Every certain fact lies in that world and mentions
// only the constants of d and q — a fact with a fresh constant would
// change under a different valuation. Each candidate is then confirmed or
// refuted by the per-fact equality-logic test of certainIdentity.
//
// For homomorphism-preserved queries on g-tables, every candidate passes
// immediately (Theorem 5.3(1)); the refutation step is what extends the
// computation soundly to ≠-conditions and local conditions. The
// per-candidate confirmations are independent equality-logic systems, so
// they run across the worker pool; answers are inserted in candidate
// order afterwards, making the result identical at every worker count.
func (o Options) CertainAnswers(q query.Query, d *table.Database) (*rel.Instance, error) {
	l, ok := query.AsLiftable(q)
	if !ok {
		return nil, fmt.Errorf("decide: CertainAnswers requires a liftable query, got %s", q.Label())
	}
	lifted, err := l.EvalLifted(d)
	if err != nil {
		return nil, err
	}
	nd := lifted.Compiled().Norm
	if nd == nil {
		// rep(d) = ∅: certainty is vacuous; there is no canonical answer
		// set. Report the empty schema-shaped instance.
		return lifted.EmptyInstance(), nil
	}

	// Constants allowed in answers: those of the database and the query.
	// The frozen world's fresh constants avoid them all.
	delta := table.NewDelta(q.Consts(), []*table.Database{nd})
	allowed := make(map[sym.ID]bool, len(delta.Base))
	for _, c := range delta.Base {
		allowed[c] = true
	}
	w0 := table.Freeze(nd, delta.Prefix)

	// Collect the candidates of every table, confirm them in parallel,
	// then assemble the answer instance in candidate order.
	var cands []factRef
	out := rel.NewInstance()
	for _, t := range nd.Tables() {
		out.AddRelation(rel.NewRelation(t.Name, t.Arity))
		src := w0.Relation(t.Name)
	candidates:
		for _, u := range src.Tuples() {
			for _, c := range u {
				if !allowed[c] {
					continue candidates
				}
			}
			cands = append(cands, factRef{t: t, u: u})
		}
	}
	keep := make([]bool, len(cands))
	eachIndex(o.workers(), len(cands), func(k int) {
		keep[k] = !factOmittable(nd, cands[k].t, cands[k].u)
	})
	for k, c := range cands {
		if keep[k] {
			out.Relation(c.t.Name).Insert(c.u)
		}
	}
	return out, nil
}

// PossibleAnswers computes the possible answer facts of q(rep(d)) over
// the constants of d and q, for a liftable query: every fact, built from
// those constants, that some world of the view contains. The domain
// restriction is what keeps the answer finite — an unconditioned
// variable row makes facts over arbitrary fresh constants possible, and
// those are never enumerable; the restricted set is the canonical one
// (genericity: any possible fact over the inputs' constants is possible
// within them).
//
// The candidate set comes from the rows of the normalized lifted view:
// every assignment of a row's variables to allowed constants names one
// candidate fact, and each candidate is confirmed or refuted by the
// single-fact possibility test (an independent search per candidate, so
// the sweep runs across the worker pool; answers are inserted in
// candidate order, making the result identical at every worker count).
func (o Options) PossibleAnswers(q query.Query, d *table.Database) (*rel.Instance, error) {
	l, ok := query.AsLiftable(q)
	if !ok {
		return nil, fmt.Errorf("decide: PossibleAnswers requires a liftable query, got %s", q.Label())
	}
	lifted, err := l.EvalLifted(d)
	if err != nil {
		return nil, err
	}
	nd := lifted.Compiled().Norm
	if nd == nil {
		// rep(d) = ∅: no world, no possible fact.
		return lifted.EmptyInstance(), nil
	}

	// Allowed constants, in name order (deterministic candidate
	// enumeration). Taken from the *input* database, not the normalized
	// view: normalization may drop trivially-true residual atoms and the
	// constants they mention, but facts over those constants are still
	// possible answers.
	allowed := table.NewDelta(q.Consts(), []*table.Database{d}).Base

	// Candidates: per row, the instantiations of its variables into the
	// allowed pool (constant cells stay fixed; repeated variables stay
	// equal by construction). Deduplicated per relation.
	var cands []factRef
	out := rel.NewInstance()
	for _, t := range nd.Tables() {
		r := rel.NewRelation(t.Name, t.Arity)
		out.AddRelation(r)
		cset := rel.NewRelation(t.Name, t.Arity)
		for _, row := range t.Rows {
			eachRowInstantiation(row.Values, allowed, func(u sym.Tuple) {
				if cset.Insert(u) {
					cands = append(cands, factRef{t: t, u: u.Clone()})
				}
			})
		}
	}
	keep := make([]bool, len(cands))
	inner := o.inner()
	eachIndex(o.workers(), len(cands), func(k int) {
		p := rel.NewInstance()
		pr := p.AddRelation(rel.NewRelation(cands[k].t.Name, cands[k].t.Arity))
		pr.Insert(cands[k].u)
		yes, perr := inner.possibleIdentity(p, nd)
		keep[k] = perr == nil && yes
	})
	for k, c := range cands {
		if keep[k] {
			out.Relation(c.t.Name).Insert(c.u)
		}
	}
	return out, nil
}

// eachRowInstantiation enumerates the ground facts a conditioned row can
// denote over the allowed constant pool: the row's distinct variables
// run through the pool in odometer order. A row with variables but an
// empty pool denotes no candidate.
func eachRowInstantiation(vals value.Tuple, allowed []sym.ID, fn func(sym.Tuple)) {
	var vars []sym.ID
	pos := map[sym.ID]bool{}
	for _, v := range vals {
		id := v.ID()
		if id.IsVar() && !pos[id] {
			pos[id] = true
			vars = append(vars, id)
		}
	}
	if len(vars) > 0 && len(allowed) == 0 {
		return
	}
	assign := make(map[sym.ID]sym.ID, len(vars))
	choice := make([]int, len(vars))
	u := make(sym.Tuple, len(vals))
	for {
		for i, x := range vars {
			assign[x] = allowed[choice[i]]
		}
		for j, v := range vals {
			id := v.ID()
			if id.IsVar() {
				u[j] = assign[id]
			} else {
				u[j] = id
			}
		}
		fn(u)
		i := len(vars) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(allowed) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
