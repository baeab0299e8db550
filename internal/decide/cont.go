package decide

import (
	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// Containment decides CONT(q0, q): is q0(rep(d0)) ⊆ q(rep(d))? Dispatch:
//
//   - both queries liftable: the views are rewritten into c-table
//     databases first. If the subset side then has no local conditions
//     (kind ≤ g-table) and the superset side contains no inequality atom
//     anywhere (kind ≤ e-table), the freeze claim of Theorem 4.1 reduces
//     containment to one membership test K0 ∈ rep(d): polynomial when d is
//     a vector of Codd-tables (Theorem 4.1(3)), NP when d is an e-table
//     (Theorem 4.1(2)).
//   - otherwise: the Π₂ᵖ procedure of Proposition 2.1(1) — for every
//     valuation σ0 over Δ0 ∪ Δ0′, test q0(σ0(d0)) ∈ q(rep(d)) with the
//     membership machinery (coNP with a matching inner test when d is
//     Codd, Theorem 4.1(1)).
func (o Options) Containment(q0 query.Query, d0 *table.Database, q query.Query, d *table.Database) (bool, error) {
	l0, ok0 := query.AsLiftable(q0)
	l, ok := query.AsLiftable(q)
	if ok0 && ok {
		lifted0, err := l0.EvalLifted(d0)
		if err != nil {
			return false, err
		}
		lifted, err := l.EvalLifted(d)
		if err != nil {
			return false, err
		}
		return o.containmentIdentity(lifted0, lifted)
	}
	return o.containmentGeneric(q0, d0, q, d)
}

// containmentIdentity decides rep(d0) ⊆ rep(d).
func (o Options) containmentIdentity(d0, d *table.Database) (bool, error) {
	c0 := d0.Compiled()
	nd0 := c0.Norm
	if nd0 == nil {
		return true, nil // rep(d0) = ∅ ⊆ anything
	}
	// The freeze claim needs: no local conditions on the subset side (so
	// K0 really is a member of rep(d0)), and a superset side that is an
	// e-table — no inequality atoms anywhere AND no local conditions. A
	// local condition, even equality-only, breaks the claim's homomorphism
	// argument: composing with the fresh-constant-collapsing map p can
	// turn a falsified (dropped) local condition into a satisfied one,
	// adding facts to the world.
	if !c0.NormLocal && noInequalities(d) && !d.Compiled().Local {
		return o.freezeContainment(nd0, d)
	}
	// General case: for every valuation σ0 of d0 over Δ ∪ Δ′, the world
	// σ0(d0) must be a member of rep(d). Δ is the constants of *both*
	// sides (Proposition 2.1): a counterexample world may need to mention
	// d's constants (e.g. to violate an inequality of d). The outer Π₂ᵖ
	// universal runs sharded — first non-member world cancels everything —
	// while the inner membership tests stay sequential so the outer
	// fan-out owns the pool.
	base, prefix := contDomain(nd0, nil, d, nil)
	var memErr errOnce
	inner := o.inner()
	counterexample := o.enumerate(nd0.Universe(), base, prefix, func(v valuation.V) bool {
		w := v.Database(nd0)
		if w == nil {
			return false
		}
		in, err := inner.membershipIdentity(w, d)
		if err != nil {
			memErr.set(err)
			return true
		}
		return !in
	})
	if err := memErr.get(); err != nil {
		return false, err
	}
	return !counterexample, nil
}

// noInequalities reports whether d contains no ≠ atom in its global or any
// local condition (the fragment where the freeze claim is sound: the
// homomorphism collapsing fresh constants preserves equalities but would
// break inequalities — which is exactly why Theorem 4.2(1) puts
// table-in-i-table containment at Π₂ᵖ).
func noInequalities(d *table.Database) bool {
	check := func(c cond.Conjunction) bool {
		for _, a := range c {
			if a.Op == cond.Neq && !a.TriviallyTrue() {
				return false
			}
		}
		return true
	}
	for _, t := range d.Tables() {
		if !check(t.Global) {
			return false
		}
		for _, r := range t.Rows {
			if !check(r.Cond) {
				return false
			}
		}
	}
	return true
}

// freezeContainment implements the claim of Theorem 4.1: for a normalized
// local-condition-free d0 and an inequality-free d, rep(d0) ⊆ rep(d) iff
// K0 ∈ rep(d), where K0 freezes each variable of d0 to a distinct fresh
// constant.
func (o Options) freezeContainment(nd0, d *table.Database) (bool, error) {
	seen := map[sym.ID]bool{}
	pool := nd0.ConstIDs(nil, seen)
	pool = d.ConstIDs(pool, seen)
	k0 := table.Freeze(nd0, table.FreshPrefixIDs(pool))
	return o.membershipIdentity(k0, d)
}

// containmentGeneric handles non-liftable queries on either side by the
// full Π₂ᵖ enumeration (Proposition 2.1(1)): the outer universal is
// sharded, the inner membership tests run sequentially.
func (o Options) containmentGeneric(q0 query.Query, d0 *table.Database, q query.Query, d *table.Database) (bool, error) {
	base, prefix := contDomain(d0, q0, d, q)
	var innerErr errOnce
	inner := o.inner()
	counterexample := o.enumerate(d0.Universe(), base, prefix, func(v valuation.V) bool {
		w := v.Database(d0)
		if w == nil {
			return false
		}
		img, err := q0.Eval(w)
		if err != nil {
			innerErr.set(err)
			return true
		}
		in, err := inner.Membership(img, q, d)
		if err != nil {
			innerErr.set(err)
			return true
		}
		return !in
	})
	if err := innerErr.get(); err != nil {
		return false, err
	}
	return !counterexample, nil
}

// contDomain is the Δ ∪ Δ′ for containment: constants of both databases
// and both queries, plus one fresh constant per variable of the subset
// side (only σ0's variables are enumerated here; the superset side's
// valuations live inside the membership tests).
func contDomain(d0 *table.Database, q0 query.Query, d *table.Database, q query.Query) (base []sym.ID, prefix string) {
	seen := map[sym.ID]bool{}
	consts := d0.ConstIDs(nil, seen)
	consts = d.ConstIDs(consts, seen)
	for _, qq := range []query.Query{q0, q} {
		if qq == nil {
			continue
		}
		for _, c := range qq.Consts() {
			id := sym.Const(c)
			if !seen[id] {
				seen[id] = true
				consts = append(consts, id)
			}
		}
	}
	return consts, table.FreshPrefixIDs(consts)
}
