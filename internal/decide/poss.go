package decide

import (
	"slices"

	"pw/internal/cond"
	"pw/internal/matching"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
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
	c := d.Compiled()
	if c.Norm == nil {
		return false, nil // rep(d) = ∅
	}
	if c.Kind == table.KindCodd {
		return possCodd(p, c, o.Cost), nil
	}
	return possSearch(p, c, o.Cost), nil
}

// possCodd is the Theorem 5.1(1) variation of the matching algorithm:
// since σ(T) ⊇ p (not equality), only the facts of p need to be matched —
// injectively, because one row instantiates to exactly one fact — and
// every row is free to produce extra facts.
func possCodd(p *rel.Instance, c *table.Compiled, cost *obs.Cost) bool {
	for _, r := range p.Relations() {
		t := c.Norm.Table(r.Name)
		facts := r.Tuples()
		g := matching.NewGraph(len(facts), len(t.Rows))
		buildMatchGraph(g, nil, facts, t, c, cost)
		if !matching.Perfect(g) {
			return false
		}
	}
	return true
}

// possSearch assigns each fact of p to a distinct row of its table
// (backtracking with eager bindings); chosen rows' local conditions join
// the global condition in the final equality-logic check.
func possSearch(p *rel.Instance, c *table.Compiled, cost *obs.Cost) bool {
	d := c.Norm
	type need struct {
		fact sym.Tuple
		t    *table.Table
		cand []int32 // candidate row indices in t
	}
	var needs []need
	for _, r := range p.Relations() {
		t := d.Table(r.Name)
		m := newMatcher(t, c)
		for _, u := range r.Tuples() {
			cand := m.rows(u)
			if len(cand) == 0 {
				m.done(cost)
				return false
			}
			needs = append(needs, need{fact: u, t: t, cand: slices.Clone(cand)})
		}
		m.done(cost)
	}
	// Most-constrained-first: facts with the fewest compatible rows first.
	slices.SortStableFunc(needs, func(a, b need) int { return len(a.cand) - len(b.cand) })
	// eq holds the global condition (satisfiable: d is a normal form)
	// and, per chosen row, its local condition and its values'
	// equalities with the fact: one Push per chosen row.
	eq := cond.GetSolver()
	defer eq.Release()
	for _, t := range d.Tables() {
		eq.Push(t.Global...)
	}
	used := map[*table.Row]bool{}
	var atoms cond.Conjunction

	var try func(k int) bool
	try = func(k int) bool {
		if k == len(needs) {
			// No row is forbidden, so the residual system is what eq
			// holds, and every Push that led here succeeded.
			return true
		}
		n := needs[k]
		for _, ri := range n.cand {
			row := &n.t.Rows[ri]
			if used[row] {
				continue
			}
			atoms = append(bindAtoms(atoms[:0], row.Values, n.fact), row.Cond...)
			if !eq.Push(atoms...) {
				continue
			}
			used[row] = true
			if try(k + 1) {
				return true
			}
			used[row] = false
			eq.Pop()
		}
		return false
	}
	return try(0)
}

// possibleGeneric is the Proposition 2.1(4) search for arbitrary queries:
// sharded across the pool, first satisfying world cancels the rest.
func (o Options) possibleGeneric(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	return o.anyImage(d, q, p, p.SubsetOf)
}

// PossibleFact decides POSS(1, q) for a single fact.
func (o Options) PossibleFact(relName string, f rel.Fact, q query.Query, d *table.Database) (bool, error) {
	p := rel.NewInstance()
	r := rel.NewRelation(relName, len(f))
	r.Add(f)
	p.AddRelation(r)
	return o.Possible(p, q, d)
}
