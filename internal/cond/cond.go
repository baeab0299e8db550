// Package cond implements the condition language of the paper (§2.2):
// conjunctions of equality atoms (x = y, x = c) and inequality atoms
// (x ≠ y, x ≠ c) over variables and constants, plus and/or formulas with a
// disjunctive-normal-form converter (needed by the UNIQ algorithm of
// Theorem 3.2(2) and by query application to c-tables).
//
// The boolean constants are encoded as in the paper: true is the atom x = x
// and false is x ≠ x; Conjunction{} (empty) is also true.
//
// Satisfiability is over the infinite constant domain 𝒟: a conjunction is
// satisfiable iff merging its equality classes never identifies two
// distinct constants and no inequality atom connects two members of one
// class (Proposition 2.1's "checked in PTIME" for global conditions).
// Every such check runs on a Solver: a union–find over interned symbol
// IDs with an undo trail, so the backtracking searches of internal/decide
// and internal/eqlogic push a row's atoms at each search node and pop
// them on backtrack instead of rebuilding the closure. Each search owns
// its solver; the one-shot methods below take one from a shared pool.
package cond

import (
	"sort"
	"strings"

	"pw/internal/sym"
)

// Op is the comparison operator of an atom.
type Op uint8

const (
	// Eq is the equality operator (=).
	Eq Op = iota
	// Neq is the inequality operator (≠).
	Neq
)

// String returns "=" or "!=".
func (o Op) String() string {
	if o == Eq {
		return "="
	}
	return "!="
}

// Subst is a substitution: a map from variables to replacement symbols.
// Constants are never keys.
type Subst map[sym.ID]sym.ID

// Atom is a single comparison between two symbols. Either side may be a
// constant or a variable; const-const atoms are allowed and are immediately
// true or false.
type Atom struct {
	Op   Op
	L, R sym.ID
}

// EqAtom returns the atom l = r.
func EqAtom(l, r sym.ID) Atom { return Atom{Op: Eq, L: l, R: r} }

// NeqAtom returns the atom l ≠ r.
func NeqAtom(l, r sym.ID) Atom { return Atom{Op: Neq, L: l, R: r} }

// True is the canonical true atom (encoded, per the paper, as x = x; we use
// a constant for ground-ness: "0" = "0").
func True() Atom { return EqAtom(sym.Const("0"), sym.Const("0")) }

// False is the canonical false atom ("0" ≠ "0").
func False() Atom { return NeqAtom(sym.Const("0"), sym.Const("0")) }

// Negate returns the complementary atom.
func (a Atom) Negate() Atom {
	if a.Op == Eq {
		return Atom{Op: Neq, L: a.L, R: a.R}
	}
	return Atom{Op: Eq, L: a.L, R: a.R}
}

// TriviallyTrue reports whether the atom holds under every valuation
// (syntactically: u = u, or c = c / c ≠ d on constants).
func (a Atom) TriviallyTrue() bool {
	if !a.L.IsVar() && !a.R.IsVar() {
		return (a.Op == Eq) == (a.L == a.R)
	}
	return a.Op == Eq && a.L == a.R
}

// TriviallyFalse reports whether the atom fails under every valuation
// (syntactically: u ≠ u, or c = d / c ≠ c on constants).
func (a Atom) TriviallyFalse() bool {
	if !a.L.IsVar() && !a.R.IsVar() {
		return (a.Op == Eq) == (a.L != a.R)
	}
	return a.Op == Neq && a.L == a.R
}

// normalize orders the two sides canonically (constants first, then by
// name) so that syntactic deduplication catches x=y vs y=x.
func (a Atom) normalize() Atom {
	if sym.Compare(a.L, a.R) > 0 {
		a.L, a.R = a.R, a.L
	}
	return a
}

// Subst replaces variables according to s. Variables absent from s are left
// untouched.
func (a Atom) Subst(s Subst) Atom {
	if a.L.IsVar() {
		if v, ok := s[a.L]; ok {
			a.L = v
		}
	}
	if a.R.IsVar() {
		if v, ok := s[a.R]; ok {
			a.R = v
		}
	}
	return a
}

// VarIDs appends the variable IDs of a to dst (dedup via seen).
func (a Atom) VarIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	return sym.Tuple{a.L, a.R}.VarIDs(dst, seen)
}

// String renders the atom in .pw syntax, e.g. "?x != 3".
func (a Atom) String() string {
	return a.L.String() + " " + a.Op.String() + " " + a.R.String()
}

// Compare gives a total syntactic order on atoms.
func (a Atom) Compare(b Atom) int {
	if c := sym.Compare(a.L, b.L); c != 0 {
		return c
	}
	if c := sym.Compare(a.R, b.R); c != 0 {
		return c
	}
	switch {
	case a.Op < b.Op:
		return -1
	case a.Op > b.Op:
		return 1
	}
	return 0
}

// Conjunction is a conjunct of atoms. nil and the empty conjunction are
// true. Conjunctions are the only condition form the paper allows on
// c-tables (global and local).
type Conjunction []Atom

// Conj builds a conjunction from atoms.
func Conj(atoms ...Atom) Conjunction {
	c := make(Conjunction, len(atoms))
	copy(c, atoms)
	return c
}

// Clone returns a deep copy.
func (c Conjunction) Clone() Conjunction {
	out := make(Conjunction, len(c))
	copy(out, c)
	return out
}

// And returns the conjunction c ∧ d (freshly allocated).
func (c Conjunction) And(d Conjunction) Conjunction {
	out := make(Conjunction, 0, len(c)+len(d))
	out = append(out, c...)
	out = append(out, d...)
	return out
}

// Subst applies a substitution to every atom.
func (c Conjunction) Subst(s Subst) Conjunction {
	out := make(Conjunction, len(c))
	for i, a := range c {
		out[i] = a.Subst(s)
	}
	return out
}

// VarIDs appends the variable IDs occurring in c to dst (dedup via seen).
func (c Conjunction) VarIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, a := range c {
		dst = a.VarIDs(dst, seen)
	}
	return dst
}

// VarNames returns the set of variable names in c as a fresh sorted slice.
func (c Conjunction) VarNames() []string {
	return sym.Names(c.VarIDs(nil, map[sym.ID]bool{}))
}

// ConstIDs appends the constant IDs occurring in c to dst (dedup via seen).
func (c Conjunction) ConstIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, a := range c {
		for _, v := range []sym.ID{a.L, a.R} {
			if !v.IsVar() && !seen[v] {
				seen[v] = true
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// Normalize returns an equivalent conjunction with trivially-true atoms
// dropped, both sides of each atom ordered canonically, duplicates removed,
// and atoms sorted. If any atom is trivially false the result is the single
// False atom. Normalize does not perform equality propagation; see Closure.
func (c Conjunction) Normalize() Conjunction {
	out := make(Conjunction, 0, len(c))
	seen := make(map[Atom]bool, len(c))
	for _, a := range c {
		if a.TriviallyFalse() {
			return Conjunction{False()}
		}
		if a.TriviallyTrue() {
			continue
		}
		a = a.normalize()
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Satisfiable reports whether some valuation over the infinite constant
// domain satisfies c. It runs in near-linear time.
func (c Conjunction) Satisfiable() bool { return c.SatisfiableWith() }

// SatisfiableWith reports whether c ∧ extra is satisfiable without
// materializing the combined conjunction.
func (c Conjunction) SatisfiableWith(extra ...Atom) bool {
	s := GetSolver()
	defer s.Release()
	return s.Push(c...) && s.Push(extra...)
}

// ImpliedBindings returns the substitution forced by the equalities of c:
// every variable whose equality class contains a constant is mapped to that
// constant, and every variable whose class representative is another
// variable is mapped to a canonical class variable. The second return is
// false if c is unsatisfiable.
//
// This is the normalization step of Theorem 3.2(1): "if it follows from the
// global condition that a variable equals a constant, then the variable is
// replaced by that constant in the table".
func (c Conjunction) ImpliedBindings() (Subst, bool) {
	s := GetSolver()
	defer s.Release()
	if !s.Push(c...) {
		return nil, false
	}
	return s.ImpliedBindings(), true
}

// Residual returns the inequality atoms of c rewritten through the implied
// bindings, normalized. Together with ImpliedBindings it splits a g-table
// global condition into "equalities incorporated in the table" plus a pure
// inequality condition. The boolean is false when c is unsatisfiable.
func (c Conjunction) Residual() (Conjunction, bool) {
	sub, ok := c.ImpliedBindings()
	if !ok {
		return nil, false
	}
	var out Conjunction
	for _, a := range c {
		if a.Op == Neq {
			out = append(out, a.Subst(sub))
		}
	}
	return out.Normalize(), true
}

// Implies reports whether c logically implies atom a over the infinite
// domain (i.e. c ∧ ¬a is unsatisfiable).
func (c Conjunction) Implies(a Atom) bool {
	return !c.SatisfiableWith(a.Negate())
}

// String renders the conjunction as comma-separated atoms; the empty
// conjunction renders as "true".
func (c Conjunction) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// IsTrue reports whether the conjunction is syntactically the constant
// true (empty or all atoms trivially true).
func (c Conjunction) IsTrue() bool {
	for _, a := range c {
		if !a.TriviallyTrue() {
			return false
		}
	}
	return true
}
