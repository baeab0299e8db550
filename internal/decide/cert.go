package decide

import (
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
)

// Certain decides CERT(∗, q): are all facts of p true in every world of
// q(rep(d))? By Proposition 2.1(6) this is k independent single-fact
// questions. Dispatch:
//
//   - q preserved under homomorphisms (DATALOG, positive existential
//     without ≠, identity) and d without local conditions (kind ≤
//     g-table): frozen-instance evaluation — normalize, freeze variables
//     to distinct fresh constants, evaluate q once, test p ⊆ q(K0). This
//     is Theorem 5.3(1) (after [10,17]) and runs in polynomial time.
//   - q liftable: rewrite the view into a c-table database; a fact u is
//     certain iff no valuation satisfying the global condition avoids
//     producing u from every row — one equality-logic system per fact
//     (the coNP procedure matching Theorem 5.3(3)).
//   - otherwise (first-order — the coNP-hard case of Theorem 5.3(2)):
//     exhaustive valuation search for a violating world.
func (o Options) Certain(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	if query.IsHomPreserved(q) && !d.Compiled().Local {
		return certainFrozen(p, q, d)
	}
	if l, ok := query.AsLiftable(q); ok {
		lifted, err := l.EvalLifted(d)
		if err != nil {
			return false, err
		}
		return o.certainIdentity(p, lifted)
	}
	return o.certainGeneric(p, q, d)
}

// certainFrozen implements Theorem 5.3(1): for a homomorphism-preserved
// query on a g-table, a ground fact is certain iff it is an answer on the
// frozen table. Soundness: the frozen world K0 is a member of rep(d)
// (after normalization its distinct fresh constants satisfy the residual
// inequalities), and for every world σ(d) the map h: a_x ↦ σ(x) is a
// homomorphism K0 → σ(d) fixing p's constants, so u ∈ q(K0) implies
// u = h(u) ∈ q(σ(d)). Completeness: a certain fact in particular holds in
// the world K0.
func certainFrozen(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	c := d.Compiled()
	nd := c.Norm
	if nd == nil {
		return true, nil // rep(d) = ∅: vacuously certain
	}
	if query.IsIdentity(q) {
		return frozenContains(p, c), nil
	}
	k0 := table.Freeze(nd, table.NewDelta(q.Consts(), []*table.Database{nd}, p).Prefix)
	out, err := q.Eval(k0)
	if err != nil {
		return false, err
	}
	return p.SubsetOf(out), nil
}

// frozenContains is certainFrozen for the identity query, p ⊆ K₀,
// without building K₀: a fact of p is in K₀ iff it equals a
// variable-free row of the normal form, because every other row of K₀
// carries a frozen constant, whose prefix no constant of p has.
func frozenContains(p *rel.Instance, c *table.Compiled) bool {
	for _, r := range p.Relations() {
		ix := c.Index(r.Name)
		if ix == nil {
			if r.Len() > 0 {
				return false
			}
			continue
		}
		for _, u := range r.Tuples() {
			if !ix.HasGround(u) {
				return false
			}
		}
	}
	return true
}

// certainIdentity decides whether every world of rep(d) contains all facts
// of p, one equality-logic refutation per fact — the per-fact checks are
// independent (Proposition 2.1(6)), so they fan out across the pool and
// the first uncertain fact cancels the rest.
func (o Options) certainIdentity(p *rel.Instance, d *table.Database) (bool, error) {
	if err := factsCheck(p, d); err != nil {
		return false, err
	}
	nd := d.Compiled().Norm
	if nd == nil {
		return true, nil // rep(d) = ∅: vacuously certain
	}
	refs := factRefs(nd, p)
	uncertain := anyIndex(o.workers(), len(refs), func(k int) bool {
		return factOmittable(nd, refs[k].t, refs[k].u)
	})
	return !uncertain, nil
}

// certainGeneric is the Proposition 2.1(5) search for arbitrary queries:
// the universal runs as a sharded search for the first violating world.
func (o Options) certainGeneric(p *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	violated, err := o.anyImage(d, q, p, func(out *rel.Instance) bool { return !p.SubsetOf(out) })
	return !violated && err == nil, err
}

// CertainFact decides CERT(1, q) for a single fact (the primitive that
// CERT(∗, q) reduces to, Proposition 2.1(6)).
func (o Options) CertainFact(relName string, f rel.Fact, q query.Query, d *table.Database) (bool, error) {
	p := rel.NewInstance()
	r := rel.NewRelation(relName, len(f))
	r.Add(f)
	p.AddRelation(r)
	return o.Certain(p, q, d)
}
