package decide

import (
	"sort"

	"pw/internal/cond"
	"pw/internal/eqlogic"
	"pw/internal/matching"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// Possible decides POSS(∗, q): is there a world I ∈ q(rep(d)) containing
// every fact of p? With |p| bounded by a constant k this is POSS(k, q).
// Dispatch:
//
//   - q liftable (identity or positive existential): the view is rewritten
//     into a c-table database (the Theorem 5.2(1) route — polynomial growth
//     by the algebraic completeness of c-tables) and possibility is decided
//     on it: by bipartite matching when the result is a vector of
//     Codd-tables (Theorem 5.1(1)), else by the backtracking fact↔row
//     solver, which for |p| = k fixed visits O(rowsᵏ) nodes — the paper's
//     polynomial bound for bounded possibility — and in the unbounded case
//     is the NP search of Theorem 5.1(2,3).
//   - otherwise (first-order, DATALOG — the NP-hard cases of Theorem
//     5.2(2,3)): exhaustive valuation search over Δ ∪ Δ′.
func (o Options) Possible(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	if l, ok := query.AsLiftable(q); ok {
		lifted, err := l.EvalLifted(d)
		if err != nil {
			return false, err
		}
		return o.possibleIdentity(p, lifted)
	}
	return o.possibleGeneric(p, q, d)
}

// possibleIdentity decides ∃I ∈ rep(d): facts(p) ⊆ I.
func (o Options) possibleIdentity(p *rel.Instance, d *table.Database) (bool, error) {
	if err := factsCheck(p, d); err != nil {
		return false, err
	}
	nd, ok := table.Normalize(d)
	if !ok {
		return false, nil // rep(d) = ∅
	}
	if nd.Kind() == table.KindCodd {
		return possCodd(p, nd, o.workers()), nil
	}
	return possSearch(p, nd), nil
}

// possCodd is the Theorem 5.1(1) variation of the matching algorithm:
// since σ(T) ⊇ p (not equality), only the facts of p need to be matched —
// injectively, because one row instantiates to exactly one fact — and
// every row is free to produce extra facts.
func possCodd(p *rel.Instance, d *table.Database, workers int) bool {
	for _, r := range p.Relations() {
		t := d.Table(r.Name)
		facts := r.Tuples()
		g := matching.NewGraph(len(facts), len(t.Rows))
		buildMatchGraph(g, nil, facts, t.Rows, workers)
		if !matching.Perfect(g) {
			return false
		}
	}
	return true
}

// possSearch assigns each fact of p to a distinct row of its table
// (backtracking with eager bindings); chosen rows' local conditions join
// the global condition in the final equality-logic check.
func possSearch(p *rel.Instance, d *table.Database) bool {
	type need struct {
		fact sym.Tuple
		t    *table.Table
		cand []int // candidate row indices in t
	}
	var needs []need
	for _, r := range p.Relations() {
		t := d.Table(r.Name)
		for _, u := range r.Tuples() {
			n := need{fact: u, t: t}
			for ri := range t.Rows {
				if rowMatchesFact(t.Rows[ri], u) {
					n.cand = append(n.cand, ri)
				}
			}
			if len(n.cand) == 0 {
				return false
			}
			needs = append(needs, n)
		}
	}
	// Most-constrained-first: facts with the fewest compatible rows first.
	sort.SliceStable(needs, func(i, j int) bool {
		return len(needs[i].cand) < len(needs[j].cand)
	})
	global := d.GlobalConjunction()
	bind := map[sym.ID]sym.ID{}
	used := map[*table.Row]bool{}
	var must []cond.Conjunction

	consistent := func() bool {
		sub := substBindings(bind)
		all := global.Subst(sub)
		for _, c := range must {
			all = append(all, c.Subst(sub)...)
		}
		return all.Satisfiable()
	}

	var try func(k int) bool
	try = func(k int) bool {
		if k == len(needs) {
			sub := substBindings(bind)
			pr := &eqlogic.Problem{}
			pr.RequireAll(global.Subst(sub))
			for _, c := range must {
				pr.RequireAll(c.Subst(sub))
			}
			return pr.Satisfiable()
		}
		n := needs[k]
		for _, ri := range n.cand {
			row := &n.t.Rows[ri]
			if used[row] {
				continue
			}
			bound, ok := unifyTuple(row.Values, n.fact, bind)
			if !ok {
				continue
			}
			used[row] = true
			must = append(must, row.Cond)
			if consistent() && try(k+1) {
				return true
			}
			must = must[:len(must)-1]
			used[row] = false
			undo(bind, bound)
		}
		return false
	}
	return try(0)
}

// possibleGeneric is the Proposition 2.1(4) search for arbitrary queries:
// sharded across the pool, first satisfying world cancels the rest.
func (o Options) possibleGeneric(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	base, prefix := genericDomain(d, q, p)
	var evalErr errOnce
	found := o.enumerate(d.Universe(), base, prefix, func(v valuation.V) bool {
		w := applyValuation(v, d)
		if w == nil {
			return false
		}
		out, err := q.Eval(w)
		if err != nil {
			evalErr.set(err)
			return true
		}
		return p.SubsetOf(out)
	})
	if err := evalErr.get(); err != nil {
		return false, err
	}
	return found, nil
}

// PossibleFact decides POSS(1, q) for a single fact.
func (o Options) PossibleFact(relName string, f rel.Fact, q query.Query, d *table.Database) (bool, error) {
	p := rel.NewInstance()
	r := rel.NewRelation(relName, len(f))
	r.Add(f)
	p.AddRelation(r)
	return o.Possible(p, q, d)
}
