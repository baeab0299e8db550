package datalog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pw/internal/rel"
	"pw/internal/sym"
)

func v(n string) sym.ID { return sym.Var(n) }
func k(n string) sym.ID { return sym.Const(n) }

func edgeInstance(pairs ...[2]string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("E", 2)
	for _, p := range pairs {
		r.AddRow(p[0], p[1])
	}
	return i
}

func tcProgram() Program {
	return Program{Rules: []Rule{
		R(At("TC", v("x"), v("y")), At("E", v("x"), v("y"))),
		R(At("TC", v("x"), v("z")), At("TC", v("x"), v("y")), At("E", v("y"), v("z"))),
	}}
}

func TestTransitiveClosure(t *testing.T) {
	i := edgeInstance([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	out, err := tcProgram().Eval(i)
	if err != nil {
		t.Fatal(err)
	}
	tc := out.Relation("TC")
	want := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}, {"b", "d"}, {"a", "d"}}
	if tc.Len() != len(want) {
		t.Fatalf("TC = %v", tc)
	}
	for _, p := range want {
		if !tc.Has(rel.Fact{p[0], p[1]}) {
			t.Errorf("missing %v", p)
		}
	}
}

func TestCycle(t *testing.T) {
	i := edgeInstance([2]string{"a", "b"}, [2]string{"b", "a"})
	out, err := tcProgram().Eval(i)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("TC").Len() != 4 {
		t.Errorf("cycle closure = %v", out.Relation("TC"))
	}
}

func TestConstantsInRules(t *testing.T) {
	i := edgeInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	p := Program{Rules: []Rule{
		R(At("FromA", v("y")), At("E", k("a"), v("y"))),
	}}
	out, err := p.Eval(i)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("FromA").Len() != 1 || !out.Relation("FromA").Has(rel.Fact{"b"}) {
		t.Errorf("FromA = %v", out.Relation("FromA"))
	}
	if cs := p.Consts(); len(cs) != 1 || cs[0] != "a" {
		t.Errorf("Consts = %v", cs)
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	i := edgeInstance([2]string{"a", "a"}, [2]string{"a", "b"})
	p := Program{Rules: []Rule{
		R(At("Loop", v("x")), At("E", v("x"), v("x"))),
	}}
	out, err := p.Eval(i)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("Loop").Len() != 1 || !out.Relation("Loop").Has(rel.Fact{"a"}) {
		t.Errorf("Loop = %v", out.Relation("Loop"))
	}
}

func TestRangeRestriction(t *testing.T) {
	p := Program{Rules: []Rule{
		R(At("Bad", v("x"), v("free")), At("E", v("x"), v("x"))),
	}}
	if err := p.Validate(); err == nil {
		t.Error("unrestricted head variable must be rejected")
	}
	if _, err := p.Eval(edgeInstance()); err == nil {
		t.Error("Eval must also reject")
	}
}

func TestUnknownPredicate(t *testing.T) {
	p := Program{Rules: []Rule{
		R(At("Q", v("x")), At("Nope", v("x"))),
	}}
	if _, err := p.Eval(edgeInstance()); err == nil {
		t.Error("unknown predicate must be rejected")
	}
}

func TestMutualRecursion(t *testing.T) {
	// Even/odd distance from "a" along a path.
	i := edgeInstance([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	p := Program{Rules: []Rule{
		{Head: At("Even", k("a")), Body: []Atom{At("E", k("a"), v("_w"))}},
		R(At("Odd", v("y")), At("Even", v("x")), At("E", v("x"), v("y"))),
		R(At("Even", v("y")), At("Odd", v("x")), At("E", v("x"), v("y"))),
	}}
	out, err := p.Eval(i)
	if err != nil {
		t.Fatal(err)
	}
	even, odd := out.Relation("Even"), out.Relation("Odd")
	if !even.Has(rel.Fact{"a"}) || !even.Has(rel.Fact{"c"}) || even.Has(rel.Fact{"b"}) {
		t.Errorf("Even = %v", even)
	}
	if !odd.Has(rel.Fact{"b"}) || !odd.Has(rel.Fact{"d"}) || odd.Has(rel.Fact{"a"}) {
		t.Errorf("Odd = %v", odd)
	}
}

// TestSemiNaiveMatchesNaive: the two strategies agree on random graphs.
func TestSemiNaiveMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		i := rel.NewInstance()
		e := i.EnsureRelation("E", 2)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if rng.Intn(4) == 0 {
					e.AddRow(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))
				}
			}
		}
		p := tcProgram()
		semi, err1 := p.Eval(i)
		naive, err2 := p.EvalNaive(i)
		if err1 != nil || err2 != nil {
			return false
		}
		return semi.Relation("TC").Equal(naive.Relation("TC"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTCMatchesFloydWarshall cross-validates against reachability computed
// by a different algorithm.
func TestTCMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		adj := make([][]bool, n)
		for a := range adj {
			adj[a] = make([]bool, n)
		}
		i := rel.NewInstance()
		e := i.EnsureRelation("E", 2)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if rng.Intn(3) == 0 {
					adj[a][b] = true
					e.AddRow(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))
				}
			}
		}
		reach := make([][]bool, n)
		for a := range reach {
			reach[a] = append([]bool(nil), adj[a]...)
		}
		for m := 0; m < n; m++ {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if reach[a][m] && reach[m][b] {
						reach[a][b] = true
					}
				}
			}
		}
		out, err := tcProgram().Eval(i)
		if err != nil {
			return false
		}
		tc := out.Relation("TC")
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if reach[a][b] != tc.Has(rel.Fact{fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b)}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIDBAndStrings(t *testing.T) {
	p := tcProgram()
	idb := p.IDB()
	if len(idb) != 1 || idb["TC"] != 2 {
		t.Errorf("IDB = %v", idb)
	}
	if p.String() == "" || p.Rules[0].String() == "" || p.Rules[0].Head.String() == "" {
		t.Error("empty rendering")
	}
	if R(At("A", k("c"))).String() != "A(c)." {
		t.Errorf("fact rule rendering = %q", R(At("A", k("c"))).String())
	}
}

func TestEDBNotEchoed(t *testing.T) {
	out, err := tcProgram().Eval(edgeInstance([2]string{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("E") != nil {
		t.Error("EDB relation must not be echoed in the IDB output")
	}
}
