package fo

import (
	"testing"

	"pw/internal/rel"
	"pw/internal/sym"
)

func v(n string) sym.ID { return sym.Var(n) }
func k(n string) sym.ID { return sym.Const(n) }

func edges(pairs ...[2]string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("E", 2)
	for _, p := range pairs {
		r.AddRow(p[0], p[1])
	}
	return i
}

func TestAtomEval(t *testing.T) {
	i := edges([2]string{"a", "b"})
	q := Query{Head: []string{"x", "y"}, Body: At("E", v("x"), v("y"))}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"a", "b"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestConstantInAtom(t *testing.T) {
	i := edges([2]string{"a", "b"}, [2]string{"c", "b"})
	q := Query{Head: []string{"x"}, Body: At("E", v("x"), k("b"))}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("answer = %v", r)
	}
}

func TestNegationAndEquality(t *testing.T) {
	i := edges([2]string{"a", "a"}, [2]string{"a", "b"})
	// Proper edges: E(x,y) ∧ x ≠ y.
	q := Query{Head: []string{"x", "y"},
		Body: And{At("E", v("x"), v("y")), Neq(v("x"), v("y"))}}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"a", "b"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestExists(t *testing.T) {
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	// Nodes with an outgoing edge.
	q := Query{Head: []string{"x"}, Body: Exists{Vars: []string{"y"}, F: At("E", v("x"), v("y"))}}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || !r.Has(rel.Fact{"a"}) || !r.Has(rel.Fact{"b"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestForAllActiveDomain(t *testing.T) {
	// Sinks: nodes x with no outgoing edge — ∀y ¬E(x,y) over the active
	// domain.
	i := edges([2]string{"a", "b"}, [2]string{"b", "c"})
	q := Query{Head: []string{"x"}, Body: ForAll{Vars: []string{"y"}, F: Not{At("E", v("x"), v("y"))}}}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"c"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestOrShortCircuits(t *testing.T) {
	i := edges([2]string{"a", "b"})
	q := Query{Head: []string{"x"},
		Body: Or{At("E", v("x"), k("b")), At("E", k("zz"), v("x"))}}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"a"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestQueryConstsInDomain(t *testing.T) {
	// The constant "zz" appears only in the query; x = zz must be
	// considered (and satisfies x = zz).
	i := edges([2]string{"a", "b"})
	q := Query{Head: []string{"x"}, Body: Equal(v("x"), k("zz"))}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"zz"}) {
		t.Errorf("answer = %v", r)
	}
}

func TestFreeVariableRejected(t *testing.T) {
	q := Query{Head: []string{"x"}, Body: At("E", v("x"), v("loose"))}
	if _, err := q.Eval(edges(), "Q"); err == nil {
		t.Error("free variable must be rejected")
	}
	if len(q.FreeVars()) != 1 {
		t.Errorf("FreeVars = %v", q.FreeVars())
	}
}

func TestUnknownRelation(t *testing.T) {
	q := Query{Head: []string{"x"}, Body: At("Z", v("x"))}
	if _, err := q.Eval(edges(), "Q"); err == nil {
		t.Error("unknown relation must be rejected")
	}
}

func TestBooleanQueryViaConstHead(t *testing.T) {
	// The paper's q' (Theorem 5.2(2)) has the form {1 | ψ}: encode as a
	// head variable equated to the constant.
	i := edges([2]string{"a", "b"})
	q := Query{Head: []string{"w"},
		Body: And{Equal(v("w"), k("1")), Exists{Vars: []string{"x", "y"}, F: At("E", v("x"), v("y"))}}}
	r, err := q.Eval(i, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(rel.Fact{"1"}) {
		t.Errorf("answer = %v", r)
	}
	// On an empty instance the answer is empty.
	q2 := Query{Head: []string{"w"},
		Body: And{Equal(v("w"), k("1")), Exists{Vars: []string{"x", "y"}, F: At("E", v("x"), v("y"))}}}
	r2, err := q2.Eval(edges(), "Q")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 0 {
		t.Errorf("answer on empty = %v", r2)
	}
}

func TestTransitivityCheck(t *testing.T) {
	// Is E transitive? ∀x,y,z E(x,y) ∧ E(y,z) → E(x,z), encoded with
	// ¬(… ∧ ¬E(x,z)).
	trans := func(i *rel.Instance) bool {
		q := Query{Head: []string{"w"}, Body: And{
			Equal(v("w"), k("1")),
			ForAll{Vars: []string{"x", "y", "z"},
				F: Not{And{At("E", v("x"), v("y")), At("E", v("y"), v("z")), Not{At("E", v("x"), v("z"))}}}},
		}}
		r, err := q.Eval(i, "Q")
		if err != nil {
			t.Fatal(err)
		}
		return r.Len() == 1
	}
	if !trans(edges([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})) {
		t.Error("transitive graph rejected")
	}
	if trans(edges([2]string{"a", "b"}, [2]string{"b", "c"})) {
		t.Error("non-transitive graph accepted")
	}
}

func TestStringRenderings(t *testing.T) {
	q := Query{Head: []string{"x"}, Body: Or{
		And{At("E", v("x"), k("1")), Not{Equal(v("x"), k("2"))}},
		Exists{Vars: []string{"y"}, F: At("E", v("y"), v("x"))},
		ForAll{Vars: []string{"z"}, F: Equal(v("z"), v("z"))},
	}}
	if q.String() == "" || q.Body.String() == "" {
		t.Error("empty rendering")
	}
	if (And{}).String() != "true" || (Or{}).String() != "false" {
		t.Error("empty connective rendering wrong")
	}
}

func TestConstsCollection(t *testing.T) {
	q := Query{Head: []string{"x"}, Body: And{At("E", v("x"), k("7")), Equal(v("x"), k("8"))}}
	cs := q.Consts()
	if len(cs) != 2 {
		t.Errorf("Consts = %v", cs)
	}
}
