package eqlogic

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"pw/internal/cond"
	"pw/internal/sym"
)

func x() sym.ID  { return sym.Var("x") }
func y() sym.ID  { return sym.Var("y") }
func z() sym.ID  { return sym.Var("z") }
func c1() sym.ID { return sym.Const("1") }
func c2() sym.ID { return sym.Const("2") }

func TestMustOnly(t *testing.T) {
	p := &Problem{}
	p.Require(cond.EqAtom(x(), c1()))
	if !p.Satisfiable() {
		t.Error("x=1 must be satisfiable")
	}
	p.Require(cond.EqAtom(x(), c2()))
	if p.Satisfiable() {
		t.Error("x=1 ∧ x=2 must be unsatisfiable")
	}
}

func TestRequireAll(t *testing.T) {
	p := &Problem{}
	p.RequireAll(cond.Conj(cond.EqAtom(x(), c1()), cond.NeqAtom(y(), x())))
	if !p.Satisfiable() {
		t.Error("x=1 ∧ y≠x must be satisfiable")
	}
	p.RequireAll(cond.Conj(cond.EqAtom(y(), c1())))
	if p.Satisfiable() {
		t.Error("x=1 ∧ y≠x ∧ y=1 must be unsatisfiable")
	}
}

func TestForbid(t *testing.T) {
	// Must: x=1. Forbid: (x=1): unsatisfiable.
	p := &Problem{}
	p.Require(cond.EqAtom(x(), c1()))
	p.Forbid(cond.Conj(cond.EqAtom(x(), c1())))
	if p.Satisfiable() {
		t.Error("x=1 with ¬(x=1) must be unsatisfiable")
	}
	// Must: x=1. Forbid: (x=1 ∧ y=1): satisfiable via y≠1.
	p2 := &Problem{}
	p2.Require(cond.EqAtom(x(), c1()))
	p2.Forbid(cond.Conj(cond.EqAtom(x(), c1()), cond.EqAtom(y(), c1())))
	if !p2.Satisfiable() {
		t.Error("should be satisfiable by falsifying y=1")
	}
}

func TestForbidTrueConjunction(t *testing.T) {
	// ¬(true) is the empty clause: unsatisfiable.
	p := &Problem{}
	p.Forbid(nil)
	if p.Satisfiable() {
		t.Error("forbidding the empty (true) conjunction must be unsatisfiable")
	}
}

func TestClauseChoice(t *testing.T) {
	// Must: x≠1. Clauses: (x=1 ∨ y=1) → y=1 must be chosen.
	p := &Problem{}
	p.Require(cond.NeqAtom(x(), c1()))
	p.AddClause(Clause{cond.EqAtom(x(), c1()), cond.EqAtom(y(), c1())})
	if !p.Satisfiable() {
		t.Fatal("should be satisfiable")
	}
	q := p.Clone()
	q.Require(cond.NeqAtom(y(), c1()))
	if q.Satisfiable() {
		t.Error("every solution must imply y=1")
	}
}

func TestInterlockedClauses(t *testing.T) {
	// x≠y forbidden (so x=y), y≠z forbidden (y=z), and x≠z required:
	// contradiction.
	p := &Problem{}
	p.Require(cond.NeqAtom(x(), z()))
	p.Forbid(cond.Conj(cond.NeqAtom(x(), y())))
	p.Forbid(cond.Conj(cond.NeqAtom(y(), z())))
	if p.Satisfiable() {
		t.Error("x=y ∧ y=z ∧ x≠z must be unsatisfiable")
	}
}

// randomProblem builds a small random system.
func randomProblem(rng *rand.Rand) *Problem {
	vals := []sym.ID{x(), y(), z(), c1(), c2()}
	atom := func() cond.Atom {
		op := cond.Eq
		if rng.Intn(2) == 0 {
			op = cond.Neq
		}
		return cond.Atom{Op: op, L: vals[rng.Intn(len(vals))], R: vals[rng.Intn(len(vals))]}
	}
	p := &Problem{}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		p.Require(atom())
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		cl := make(Clause, 1+rng.Intn(3))
		for j := range cl {
			cl[j] = atom()
		}
		p.AddClause(cl)
	}
	return p
}

// bruteProblem decides the system by exhaustive assignment over enough
// constants (mentioned constants plus one fresh per variable).
func bruteProblem(p *Problem) bool {
	vars := map[string]bool{}
	collect := func(a cond.Atom) {
		for _, v := range []sym.ID{a.L, a.R} {
			if v.IsVar() {
				vars[v.Name()] = true
			}
		}
	}
	for _, a := range p.Must {
		collect(a)
	}
	for _, cl := range p.Clauses {
		for _, a := range cl {
			collect(a)
		}
	}
	var names []string
	for v := range vars {
		names = append(names, v)
	}
	domain := []string{"1", "2"}
	for i := range names {
		domain = append(domain, fmt.Sprintf("~b%d", i))
	}
	assign := map[string]string{}
	evalAtom := func(a cond.Atom) bool {
		get := func(v sym.ID) string {
			if !v.IsVar() {
				return v.Name()
			}
			return assign[v.Name()]
		}
		l, r := get(a.L), get(a.R)
		return (a.Op == cond.Eq) == (l == r)
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			for _, a := range p.Must {
				if !evalAtom(a) {
					return false
				}
			}
			for _, cl := range p.Clauses {
				ok := false
				for _, a := range cl {
					if evalAtom(a) {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
			return true
		}
		for _, d := range domain {
			assign[names[i]] = d
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// TestSolverMatchesBruteForce is the core property test of the package.
// SatisfiableOn, on a live solver holding Must, must agree too and leave
// the solver's bindings as it found them.
func TestSolverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		want := bruteProblem(p)
		s := cond.GetSolver()
		defer s.Release()
		if !s.Push(p.Must...) {
			return !want && !p.Satisfiable()
		}
		before := s.ImpliedBindings()
		live := SatisfiableOn(s, p.Clauses)
		return p.Satisfiable() == want && live == want && maps.Equal(before, s.ImpliedBindings())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Problem{}
	p.Require(cond.EqAtom(x(), c1()))
	p.AddClause(Clause{cond.EqAtom(y(), c1())})
	c := p.Clone()
	c.Require(cond.EqAtom(x(), c2()))
	if !p.Satisfiable() {
		t.Error("clone mutation leaked into original")
	}
	if c.Satisfiable() {
		t.Error("clone must be unsatisfiable")
	}
}

func TestNegationOf(t *testing.T) {
	cl := NegationOf(cond.Conj(cond.EqAtom(x(), c1()), cond.NeqAtom(y(), c2())))
	if len(cl) != 2 {
		t.Fatalf("clause = %v", cl)
	}
	if cl[0].Op != cond.Neq || cl[1].Op != cond.Eq {
		t.Errorf("negations wrong: %v", cl)
	}
}
