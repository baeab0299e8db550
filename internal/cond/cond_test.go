package cond

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pw/internal/sym"
)

func x() sym.ID  { return sym.Var("x") }
func y() sym.ID  { return sym.Var("y") }
func z() sym.ID  { return sym.Var("z") }
func c1() sym.ID { return sym.Const("1") }
func c2() sym.ID { return sym.Const("2") }

func TestAtomTrivial(t *testing.T) {
	cases := []struct {
		a            Atom
		wantT, wantF bool
	}{
		{EqAtom(c1(), c1()), true, false},
		{EqAtom(c1(), c2()), false, true},
		{NeqAtom(c1(), c2()), true, false},
		{NeqAtom(c1(), c1()), false, true},
		{EqAtom(x(), x()), true, false},
		{NeqAtom(x(), x()), false, true},
		{EqAtom(x(), y()), false, false},
		{EqAtom(x(), c1()), false, false},
		{NeqAtom(x(), c1()), false, false},
	}
	for _, tc := range cases {
		if tc.a.TriviallyTrue() != tc.wantT {
			t.Errorf("%s TriviallyTrue = %v, want %v", tc.a, tc.a.TriviallyTrue(), tc.wantT)
		}
		if tc.a.TriviallyFalse() != tc.wantF {
			t.Errorf("%s TriviallyFalse = %v, want %v", tc.a, tc.a.TriviallyFalse(), tc.wantF)
		}
	}
}

func TestNegateInvolution(t *testing.T) {
	a := EqAtom(x(), c1())
	if a.Negate().Negate() != a {
		t.Error("double negation must be identity")
	}
	if a.Negate().Op != Neq {
		t.Error("negation of = must be !=")
	}
}

func TestSatisfiableBasics(t *testing.T) {
	cases := []struct {
		c    Conjunction
		want bool
	}{
		{nil, true},
		{Conj(), true},
		{Conj(True()), true},
		{Conj(False()), false},
		{Conj(EqAtom(x(), c1())), true},
		{Conj(EqAtom(x(), c1()), EqAtom(x(), c2())), false},
		{Conj(EqAtom(x(), c1()), NeqAtom(x(), c1())), false},
		{Conj(EqAtom(x(), y()), EqAtom(y(), c1()), NeqAtom(x(), c1())), false},
		{Conj(EqAtom(x(), y()), EqAtom(y(), z()), NeqAtom(x(), z())), false},
		{Conj(EqAtom(x(), y()), NeqAtom(x(), z())), true},
		{Conj(NeqAtom(x(), y()), NeqAtom(y(), z()), NeqAtom(x(), z())), true},
		{Conj(EqAtom(x(), c1()), EqAtom(y(), c2()), NeqAtom(x(), y())), true},
		{Conj(EqAtom(x(), c1()), EqAtom(y(), c1()), NeqAtom(x(), y())), false},
		{Conj(NeqAtom(x(), x())), false},
	}
	for _, tc := range cases {
		if got := tc.c.Satisfiable(); got != tc.want {
			t.Errorf("Satisfiable(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

// brute checks satisfiability by enumerating all valuations of the
// variables over a domain of n+2 constants (enough: n variables can be
// pairwise distinct and avoid any single mentioned constant... we include
// all mentioned constants plus n fresh ones, which is complete).
func brute(c Conjunction) bool {
	vars := sym.Names(c.VarIDs(nil, map[sym.ID]bool{}))
	consts := sym.Names(c.ConstIDs(nil, map[sym.ID]bool{}))
	for i := range vars {
		consts = append(consts, fmt.Sprintf("~q%d", i))
	}
	if len(vars) == 0 {
		for _, a := range c {
			if a.TriviallyFalse() {
				return false
			}
		}
		return true
	}
	assign := make(map[string]string)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			for _, a := range c {
				get := func(v sym.ID) string {
					if !v.IsVar() {
						return v.Name()
					}
					return assign[v.Name()]
				}
				l, r := get(a.L), get(a.R)
				if (a.Op == Eq) != (l == r) {
					return false
				}
			}
			return true
		}
		for _, cst := range consts {
			assign[vars[i]] = cst
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func randomConjunction(rng *rand.Rand) Conjunction {
	vals := []sym.ID{x(), y(), z(), c1(), c2(), sym.Var("w")}
	n := rng.Intn(6)
	c := make(Conjunction, 0, n)
	for i := 0; i < n; i++ {
		op := Eq
		if rng.Intn(2) == 0 {
			op = Neq
		}
		c = append(c, Atom{Op: op, L: vals[rng.Intn(len(vals))], R: vals[rng.Intn(len(vals))]})
	}
	return c
}

// TestSatisfiableMatchesBruteForce is the core property test: the
// union-find decision agrees with exhaustive valuation search.
func TestSatisfiableMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConjunction(rng)
		return c.Satisfiable() == brute(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	c := Conj(EqAtom(y(), x()), EqAtom(x(), y()), True(), EqAtom(c1(), c1()))
	n := c.Normalize()
	if len(n) != 1 {
		t.Fatalf("Normalize = %v, want single atom", n)
	}
	if n[0].String() != "?x = ?y" {
		t.Errorf("canonical atom = %s", n[0])
	}
	f := Conj(EqAtom(c1(), c2()), EqAtom(x(), y()))
	nf := f.Normalize()
	if len(nf) != 1 || !nf[0].TriviallyFalse() {
		t.Errorf("Normalize of contradiction = %v", nf)
	}
}

// TestNormalizePreservesSatisfiability: Normalize never changes the
// satisfiability verdict.
func TestNormalizePreservesSatisfiability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConjunction(rng)
		return c.Satisfiable() == c.Normalize().Satisfiable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImpliedBindings(t *testing.T) {
	c := Conj(EqAtom(x(), c1()), EqAtom(y(), x()))
	sub, ok := c.ImpliedBindings()
	if !ok {
		t.Fatal("satisfiable conjunction reported unsat")
	}
	if sub[x()] != c1() || sub[y()] != c1() {
		t.Errorf("bindings = %v", sub)
	}
	// Variable-variable class without a constant picks a canonical rep.
	c2c := Conj(EqAtom(x(), y()))
	sub2, _ := c2c.ImpliedBindings()
	if len(sub2) != 1 {
		t.Fatalf("bindings = %v", sub2)
	}
	if b, ok := sub2[y()]; !ok || b != sym.Var("x") {
		t.Errorf("want y→?x, got %v", sub2)
	}
	if _, ok := Conj(EqAtom(x(), c1()), EqAtom(x(), c2())).ImpliedBindings(); ok {
		t.Error("unsatisfiable conjunction must report not-ok")
	}
}

func TestResidual(t *testing.T) {
	c := Conj(EqAtom(x(), c1()), NeqAtom(y(), x()), NeqAtom(z(), c2()))
	r, ok := c.Residual()
	if !ok {
		t.Fatal("unexpected unsat")
	}
	// After binding x→1: residual should be {y != 1, z != 2} (normalized).
	if len(r) != 2 {
		t.Fatalf("residual = %v", r)
	}
	for _, a := range r {
		if a.Op != Neq {
			t.Errorf("residual contains equality %s", a)
		}
	}
}

func TestImplies(t *testing.T) {
	c := Conj(EqAtom(x(), c1()))
	if !c.Implies(EqAtom(x(), c1())) {
		t.Error("c must imply its own atom")
	}
	if !c.Implies(NeqAtom(x(), c2())) {
		t.Error("x=1 must imply x≠2")
	}
	if c.Implies(EqAtom(y(), c1())) {
		t.Error("c must not imply an unrelated atom")
	}
	if !Conj(EqAtom(x(), y()), EqAtom(y(), z())).Implies(EqAtom(x(), z())) {
		t.Error("transitivity of implication broken")
	}
}

func TestSubst(t *testing.T) {
	c := Conj(EqAtom(x(), y()), NeqAtom(y(), c1()))
	s := Subst{y(): c2()}
	got := c.Subst(s)
	if got[0].R != c2() || got[1].L != c2() {
		t.Errorf("Subst = %v", got)
	}
	if c[0].R != y() {
		t.Error("Subst mutated the receiver")
	}
}

func TestAndDoesNotAlias(t *testing.T) {
	a := Conj(EqAtom(x(), c1()))
	b := Conj(EqAtom(y(), c2()))
	ab := a.And(b)
	ab[0] = NeqAtom(z(), z())
	if a[0].Op == Neq {
		t.Error("And aliases its receiver")
	}
}

func TestStringRendering(t *testing.T) {
	if got := Conjunction(nil).String(); got != "true" {
		t.Errorf("empty conjunction renders %q", got)
	}
	c := Conj(NeqAtom(x(), c1()))
	if got := c.String(); got != "?x != 1" {
		t.Errorf("rendering = %q", got)
	}
}

func TestVarNames(t *testing.T) {
	c := Conj(EqAtom(z(), y()), NeqAtom(x(), y()))
	got := c.VarNames()
	want := []string{"x", "y", "z"}
	if len(got) != 3 {
		t.Fatalf("VarNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VarNames = %v, want %v", got, want)
		}
	}
}
