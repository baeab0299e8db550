// Package eqlogic decides satisfiability of systems over the equality
// logic of the paper's conditions: a conjunction of literals (=/≠ atoms
// that must hold) together with clauses (disjunctions of atoms, of which at
// least one must hold), interpreted over the infinite constant domain 𝒟.
//
// Systems of this shape are the residual constraint problems left by the
// backtracking decision procedures in internal/decide:
//
//   - "row t is dropped" contributes the clause ¬φ_t, i.e. the disjunction
//     of the negations of φ_t's atoms;
//   - "fact u is not produced by any row" contributes one such clause per
//     row (the core of the uniqueness and certainty procedures);
//   - global and selected local conditions contribute must-literals.
//
// Satisfiability is decided by DPLL-style branching over clauses on one
// cond.Solver: each branch pushes a clause atom and pops it on backtrack,
// so a node costs the atom's merge, not a fresh closure. A search in
// internal/decide that has pushed its must-literals as it went hands its
// live solver over (SatisfiableOn). A model over fresh constants can be
// extracted from any satisfiable system.
package eqlogic

import (
	"fmt"

	"pw/internal/cond"
	"pw/internal/sym"
	"pw/internal/valuation"
	"pw/internal/value"
)

// Clause is a disjunction of atoms: at least one must hold. The empty
// clause is false.
type Clause []cond.Atom

// NegationOf returns the clause ¬(c): the disjunction of the negations of
// the conjunction's atoms. An empty conjunction (true) yields the empty
// clause (false).
func NegationOf(c cond.Conjunction) Clause {
	out := make(Clause, len(c))
	for i, a := range c {
		out[i] = a.Negate()
	}
	return out
}

// Problem is a conjunction of must-hold literals plus a set of clauses.
type Problem struct {
	Must    cond.Conjunction
	Clauses []Clause
}

// Require appends atoms that must hold.
func (p *Problem) Require(atoms ...cond.Atom) { p.Must = append(p.Must, atoms...) }

// RequireAll appends a whole conjunction.
func (p *Problem) RequireAll(c cond.Conjunction) { p.Must = append(p.Must, c...) }

// Forbid adds the clause ¬(c), requiring the conjunction c to be false.
func (p *Problem) Forbid(c cond.Conjunction) { p.Clauses = append(p.Clauses, NegationOf(c)) }

// AddClause appends a raw clause.
func (p *Problem) AddClause(cl Clause) { p.Clauses = append(p.Clauses, cl) }

// Clone returns an independent copy of the problem.
func (p *Problem) Clone() *Problem {
	c := &Problem{Must: p.Must.Clone(), Clauses: make([]Clause, len(p.Clauses))}
	for i, cl := range p.Clauses {
		c.Clauses[i] = append(Clause(nil), cl...)
	}
	return c
}

// Satisfiable reports whether some valuation over 𝒟 satisfies the system.
func (p *Problem) Satisfiable() bool { return p.solve(nil) }

// Solution returns a satisfying conjunction extension (Must plus one chosen
// atom per clause, consistent) if one exists.
func (p *Problem) Solution() (cond.Conjunction, bool) {
	var chosen cond.Conjunction
	if !p.solve(&chosen) {
		return nil, false
	}
	return append(p.Must.Clone(), chosen...), true
}

func (p *Problem) solve(chosen *cond.Conjunction) bool {
	s := cond.GetSolver()
	defer s.Release()
	return s.Push(p.Must...) && dpll(s, p.Clauses, chosen)
}

// SatisfiableOn reports whether the conjunction s holds, extended by one
// atom of each clause, is satisfiable. It is the residual check of a
// search that has pushed its must-literals onto s as it went; s is left
// as it was found.
func SatisfiableOn(s *cond.Solver, clauses []Clause) bool { return dpll(s, clauses, nil) }

// dpll branches over the first clause s does not already entail, pushing
// each of its atoms in turn and popping on backtrack; an atom whose push
// fails is refuted by s and cannot help. s is left as it was found.
// chosen, when non-nil, receives the atoms of the first satisfying branch.
func dpll(s *cond.Solver, clauses []Clause, chosen *cond.Conjunction) bool {
	for i, cl := range clauses {
		if entailed(s, cl) {
			continue
		}
		for _, a := range cl {
			if !s.Push(a) {
				continue
			}
			ok := dpll(s, clauses[i+1:], chosen)
			s.Pop()
			if ok {
				if chosen != nil {
					*chosen = append(*chosen, a)
				}
				return true
			}
		}
		return false
	}
	return true
}

// entailed reports whether s implies some atom of cl.
func entailed(s *cond.Solver, cl Clause) bool {
	for _, a := range cl {
		if s.Implies(a) {
			return true
		}
	}
	return false
}

// Model produces a concrete valuation of vars satisfying the system: the
// implied bindings of a solution conjunction, with every remaining
// unconstrained variable (or variable class) mapped to a distinct fresh
// constant prefix0, prefix1, … Choose the prefix outside every relevant
// active domain (see table.FreshPrefixIDs).
func (p *Problem) Model(vars []sym.ID, prefix string) (valuation.V, bool) {
	sol, ok := p.Solution()
	if !ok {
		return valuation.V{}, false
	}
	sub, _ := sol.ImpliedBindings()
	v := valuation.Make(sym.NewUniverse(vars))
	fresh := make(map[value.Value]sym.ID) // class-representative var -> fresh const
	n := 0
	freshFor := func(rep value.Value) sym.ID {
		c, ok := fresh[rep]
		if !ok {
			c = sym.Const(fmt.Sprintf("%s%d", prefix, n))
			n++
			fresh[rep] = c
		}
		return c
	}
	for _, x := range vars {
		b, bound := sub[value.Of(x)]
		switch {
		case !bound:
			v.Set(x, freshFor(value.Of(x)))
		case b.IsConst():
			v.Set(x, b.ID())
		default:
			v.Set(x, freshFor(b))
		}
	}
	// Distinct fresh constants satisfy all residual inequalities because
	// any two terms forced equal share a class (hence a fresh constant) and
	// no inequality connects two members of one class in a satisfiable
	// conjunction. Inequalities against domain constants hold since fresh
	// constants are outside the domain.
	return v, true
}
