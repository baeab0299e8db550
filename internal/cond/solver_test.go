package cond

import (
	"math/rand"
	"testing"

	"pw/internal/sym"
)

// TestSolverMatchesReferenceClosure pushes and pops random atom
// sequences over four variables and three constants. After every Push
// and Pop the solver must agree with the reference closure built from
// scratch over the atoms it holds: a Push succeeds iff their conjunction
// with the pushed atoms is satisfiable, the implied bindings are equal,
// and Implies agrees on a random atom. Solvers come from the pool, so
// later seeds also run on reset storage.
func TestSolverMatchesReferenceClosure(t *testing.T) {
	vals := []sym.ID{x(), y(), z(), sym.Var("w"), c1(), c2(), sym.Const("3")}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		atom := func() Atom {
			op := Eq
			if rng.Intn(2) == 0 {
				op = Neq
			}
			return Atom{Op: op, L: vals[rng.Intn(len(vals))], R: vals[rng.Intn(len(vals))]}
		}
		s := GetSolver()
		var levels []Conjunction
		live := func() Conjunction {
			var all Conjunction
			for _, l := range levels {
				all = append(all, l...)
			}
			return all
		}
		check := func(step int, op string) {
			t.Helper()
			want, ok := refImpliedBindings(live())
			if !ok {
				t.Fatalf("seed %d step %d (%s): solver holds %v, which the reference finds unsatisfiable", seed, step, op, live())
			}
			if got := s.ImpliedBindings(); !equalSubst(got, want) {
				t.Fatalf("seed %d step %d (%s): bindings of %v = %v, reference %v", seed, step, op, live(), got, want)
			}
			a := atom()
			if got, want := s.Implies(a), !refSatisfiable(append(live(), a.Negate())); got != want {
				t.Fatalf("seed %d step %d (%s): %v implies %v = %v, reference %v", seed, step, op, live(), a, got, want)
			}
		}
		for step := 0; step < 40; step++ {
			if len(levels) > 0 && rng.Intn(3) == 0 {
				s.Pop()
				levels = levels[:len(levels)-1]
				check(step, "pop")
				continue
			}
			atoms := make(Conjunction, 1+rng.Intn(3))
			for i := range atoms {
				atoms[i] = atom()
			}
			want := refSatisfiable(append(live(), atoms...))
			if got := s.Push(atoms...); got != want {
				t.Fatalf("seed %d step %d: push %v onto %v = %v, reference %v", seed, step, atoms, live(), got, want)
			}
			if want {
				levels = append(levels, atoms)
			}
			check(step, "push "+atoms.String())
		}
		s.Release()
	}
}

func equalSubst(a, b Subst) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
