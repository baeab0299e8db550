package cond

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pw/internal/sym"
)

// evalConj evaluates a conjunction under a total assignment.
func evalConj(c Conjunction, assign map[string]string) bool {
	get := func(v sym.ID) string {
		if !v.IsVar() {
			return v.Name()
		}
		return assign[v.Name()]
	}
	for _, a := range c {
		l, r := get(a.L), get(a.R)
		if (a.Op == Eq) != (l == r) {
			return false
		}
	}
	return true
}

func evalFormula(f Formula, assign map[string]string) bool {
	switch n := f.(type) {
	case AtomF:
		return evalConj(Conjunction{n.A}, assign)
	case ConjF:
		return evalConj(n.C, assign)
	case AndF:
		for _, s := range n {
			if !evalFormula(s, assign) {
				return false
			}
		}
		return true
	case OrF:
		for _, s := range n {
			if evalFormula(s, assign) {
				return true
			}
		}
		return false
	}
	panic("unknown formula")
}

func formulaVars(f Formula) []string {
	switch n := f.(type) {
	case AtomF:
		return Conjunction{n.A}.VarNames()
	case ConjF:
		return n.C.VarNames()
	case AndF:
		var out []string
		seen := map[string]bool{}
		for _, s := range n {
			for _, v := range formulaVars(s) {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		return out
	case OrF:
		var out []string
		seen := map[string]bool{}
		for _, s := range n {
			for _, v := range formulaVars(s) {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		return out
	}
	panic("unknown formula")
}

func randomFormula(rng *rand.Rand, depth int) Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		vals := []sym.ID{x(), y(), z(), c1(), c2()}
		op := Eq
		if rng.Intn(2) == 0 {
			op = Neq
		}
		return AtomF{Atom{Op: op, L: vals[rng.Intn(len(vals))], R: vals[rng.Intn(len(vals))]}}
	}
	n := 1 + rng.Intn(2)
	subs := make([]Formula, n)
	for i := range subs {
		subs[i] = randomFormula(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return AndF(subs)
	}
	return OrF(subs)
}

// TestDNFEquivalence: the DNF of a formula is satisfied by exactly the
// assignments that satisfy the formula (checked exhaustively over a small
// domain).
func TestDNFEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		form := randomFormula(rng, 3)
		dnf := form.DNF()
		vars := formulaVars(form)
		domain := []string{"1", "2", "3", "4"}
		assign := map[string]string{}
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(vars) {
				want := evalFormula(form, assign)
				got := false
				for _, c := range dnf {
					if evalConj(c, assign) {
						got = true
						break
					}
				}
				return got == want
			}
			for _, d := range domain {
				assign[vars[i]] = d
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		return rec(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDNFConstants(t *testing.T) {
	if got := (AndF{}).DNF(); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("DNF(true) = %v", got)
	}
	if got := (OrF{}).DNF(); len(got) != 0 {
		t.Errorf("DNF(false) = %v", got)
	}
	if got := (AtomF{False()}).DNF(); len(got) != 0 {
		t.Errorf("DNF(false atom) = %v", got)
	}
	if got := (AtomF{True()}).DNF(); len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("DNF(true atom) = %v", got)
	}
}

func TestDNFPrunesContradictions(t *testing.T) {
	// (x=1 and x=2) or (x=1): the contradictory disjunct must vanish.
	f := OrF{
		AndF{AtomF{EqAtom(x(), c1())}, AtomF{EqAtom(x(), c2())}},
		AtomF{EqAtom(x(), c1())},
	}
	dnf := f.DNF()
	if len(dnf) != 1 {
		t.Fatalf("DNF = %v, want 1 disjunct", dnf)
	}
}

func TestFormulaString(t *testing.T) {
	f := AndF{AtomF{EqAtom(x(), c1())}, OrF{}}
	if f.FormulaString() == "" {
		t.Error("empty rendering")
	}
	if (AndF{}).FormulaString() != "true" {
		t.Error("AndF{} should render true")
	}
	if (OrF{}).FormulaString() != "false" {
		t.Error("OrF{} should render false")
	}
	if (ConjF{Conj(True())}).FormulaString() == "" {
		t.Error("ConjF rendering empty")
	}
}
