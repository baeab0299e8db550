package valuation

import (
	"testing"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

func v(n string) sym.ID { return sym.Var(n) }
func k(n string) sym.ID { return sym.Const(n) }

// mk builds a valuation from name pairs, the way the map-based seed tests
// wrote literals.
func mk(pairs ...string) V {
	vars := make([]sym.ID, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		vars = append(vars, sym.Var(pairs[i]))
	}
	val := Make(sym.NewUniverse(vars))
	for i := 0; i < len(pairs); i += 2 {
		val.Set(sym.Var(pairs[i]), sym.Const(pairs[i+1]))
	}
	return val
}

func ids(names ...string) []sym.ID {
	out := make([]sym.ID, len(names))
	for i, n := range names {
		out[i] = sym.Const(n)
	}
	return out
}

func uni(names ...string) *sym.Universe {
	vars := make([]sym.ID, len(names))
	for i, n := range names {
		vars[i] = sym.Var(n)
	}
	return sym.NewUniverse(vars)
}

func TestValueApplication(t *testing.T) {
	val := mk("x", "7")
	if val.Value(k("3")) != sym.Const("3") {
		t.Error("constants must map to themselves")
	}
	if val.Value(v("x")) != sym.Const("7") {
		t.Error("variable lookup broken")
	}
}

func TestUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unbound variable must panic")
		}
	}()
	mk().Value(v("ghost"))
}

func TestSatisfies(t *testing.T) {
	val := mk("x", "1", "y", "2")
	if !val.Satisfies(cond.Conj(cond.EqAtom(v("x"), k("1")), cond.NeqAtom(v("x"), v("y")))) {
		t.Error("satisfied conjunction rejected")
	}
	if val.Satisfies(cond.Conj(cond.EqAtom(v("x"), v("y")))) {
		t.Error("x=y with x=1,y=2 accepted")
	}
}

// Example 2.1 of the paper: σx=2, σy=3, σz=0, σv=5 maps the Fig. 1 Codd
// table Ta onto the instance Ia.
func TestPaperExample21(t *testing.T) {
	ta := table.New("T", 3)
	ta.AddTuple(k("0"), k("1"), v("x"))
	ta.AddTuple(v("y"), v("z"), k("1"))
	ta.AddTuple(k("2"), k("0"), v("v"))
	sigma := mk("x", "2", "y", "3", "z", "0", "v", "5")
	got := sigma.Table(ta)
	want := rel.NewRelation("T", 3)
	want.AddRow("0", "1", "2")
	want.AddRow("3", "0", "1")
	want.AddRow("2", "0", "5")
	if !got.Equal(want) {
		t.Errorf("σTa = %v, want %v", got, want)
	}
}

func TestTableDropsFailingLocalConds(t *testing.T) {
	tb := table.New("T", 1)
	tb.Add(table.Row{Values: sym.Tuple{v("x")}, Cond: cond.Conj(cond.EqAtom(v("x"), k("1")))})
	tb.Add(table.Row{Values: sym.Tuple{k("9")}, Cond: cond.Conj(cond.NeqAtom(v("x"), k("1")))})
	sigma := mk("x", "1")
	got := sigma.Table(tb)
	if got.Len() != 1 || !got.Has(rel.Fact{"1"}) {
		t.Errorf("world = %v, want {(1)}", got)
	}
}

func TestDatabaseGlobalGate(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.EqAtom(v("x"), k("1")))
	tb.AddTuple(v("x"))
	d := table.DB(tb)
	if mk("x", "2").Database(d) != nil {
		t.Error("valuation violating the global condition must denote no world")
	}
	w := mk("x", "1").Database(d)
	if w == nil || !w.Relation("T").Has(rel.Fact{"1"}) {
		t.Errorf("world = %v", w)
	}
}

func TestEnumerateCountsAndOrder(t *testing.T) {
	var seen []string
	Enumerate(uni("a", "b"), ids("0", "1"), func(val V) bool {
		a, _ := val.Lookup("a")
		b, _ := val.Lookup("b")
		seen = append(seen, a+b)
		return false
	})
	want := []string{"00", "01", "10", "11"}
	if len(seen) != len(want) {
		t.Fatalf("enumerated %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("position %d = %s, want %s", i, seen[i], want[i])
		}
	}
	if Count(uni("a", "b", "c"), ids("0", "1")) != 8 {
		t.Error("Count broken")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	stopped := Enumerate(uni("a"), ids("0", "1", "2"), func(val V) bool {
		n++
		a, _ := val.Lookup("a")
		return a == "1"
	})
	if !stopped || n != 2 {
		t.Errorf("stopped=%v after %d, want true after 2", stopped, n)
	}
}

func TestEnumerateNoVars(t *testing.T) {
	n := 0
	Enumerate(uni(), ids("0"), func(val V) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("no-variable enumeration must visit exactly once, got %d", n)
	}
	// Empty domain with no vars still visits the empty valuation once.
	n = 0
	Enumerate(uni(), nil, func(val V) bool { n++; return false })
	if n != 1 {
		t.Errorf("empty-domain no-var enumeration visited %d times", n)
	}
}

func TestEnumerateEmptyDomainWithVars(t *testing.T) {
	if Enumerate(uni("a"), nil, func(V) bool { return true }) {
		t.Error("no valuations exist over an empty domain")
	}
}

func TestDomainIncludesFreshPerVariable(t *testing.T) {
	tb := table.New("T", 2)
	tb.AddTuple(k("1"), v("x"))
	tb.AddTuple(v("y"), k("2"))
	d := table.DB(tb)
	extra := rel.NewInstance()
	extra.EnsureRelation("T", 2).AddRow("3", "4")
	dom := Domain(d, extra)
	want := map[string]bool{"1": true, "2": true, "3": true, "4": true}
	fresh := 0
	for _, c := range dom {
		if want[c.Name()] {
			delete(want, c.Name())
		} else {
			fresh++
		}
	}
	if len(want) != 0 {
		t.Errorf("missing constants %v in domain %v", want, dom)
	}
	if fresh != 2 {
		t.Errorf("want 2 fresh constants (one per variable), got %d", fresh)
	}
}

func TestValuationString(t *testing.T) {
	s := mk("b", "2", "a", "1").String()
	if s != "{a→1, b→2}" {
		t.Errorf("String = %q", s)
	}
}

func TestClone(t *testing.T) {
	a := mk("x", "1")
	b := a.Clone()
	b.Set(sym.Var("x"), sym.Const("2"))
	if got, _ := a.Lookup("x"); got != "1" {
		t.Error("Clone aliases")
	}
}
