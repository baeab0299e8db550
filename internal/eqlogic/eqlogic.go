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
// live solver over (SatisfiableOn).
package eqlogic

import "pw/internal/cond"

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
func (p *Problem) Satisfiable() bool {
	s := cond.GetSolver()
	defer s.Release()
	return s.Push(p.Must...) && dpll(s, p.Clauses)
}

// SatisfiableOn reports whether the conjunction s holds, extended by one
// atom of each clause, is satisfiable. It is the residual check of a
// search that has pushed its must-literals onto s as it went; s is left
// as it was found.
func SatisfiableOn(s *cond.Solver, clauses []Clause) bool { return dpll(s, clauses) }

// dpll branches over the first clause s does not already entail, pushing
// each of its atoms in turn and popping on backtrack; an atom whose push
// fails is refuted by s and cannot help. s is left as it was found.
func dpll(s *cond.Solver, clauses []Clause) bool {
	for i, cl := range clauses {
		if entailed(s, cl) {
			continue
		}
		for _, a := range cl {
			if !s.Push(a) {
				continue
			}
			ok := dpll(s, clauses[i+1:])
			s.Pop()
			if ok {
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
