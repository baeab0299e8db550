package table

import (
	"slices"
	"strings"
	"testing"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/value"
)

func v(n string) value.Value { return value.Var(n) }
func k(n string) value.Value { return value.Const(n) }

// fig1 builds the five representations of Fig. 1 of the paper.
func fig1Table() *Table { // Ta: Codd-table
	t := New("T", 3)
	t.AddTuple(k("0"), k("1"), v("x"))
	t.AddTuple(v("y"), v("z"), k("1"))
	t.AddTuple(k("2"), k("0"), v("v"))
	return t
}

func fig1ETable() *Table { // Tb: e-table (repeated variables)
	t := New("T", 3)
	t.AddTuple(k("0"), k("1"), v("x"))
	t.AddTuple(v("x"), v("z"), k("1"))
	t.AddTuple(k("2"), k("0"), v("z"))
	return t
}

func fig1ITable() *Table { // Tc: i-table
	t := New("T", 3)
	t.Global = cond.Conj(
		cond.NeqAtom(v("x"), k("0")),
		cond.NeqAtom(v("y"), v("z")),
	)
	t.AddTuple(k("0"), k("1"), v("x"))
	t.AddTuple(v("y"), v("z"), k("1"))
	t.AddTuple(k("2"), k("0"), v("v"))
	return t
}

func fig1GTable() *Table { // Td: g-table
	t := New("T", 3)
	t.Global = cond.Conj(cond.NeqAtom(v("x"), v("z")))
	t.AddTuple(k("0"), k("1"), v("x"))
	t.AddTuple(v("x"), v("z"), k("1"))
	t.AddTuple(k("2"), k("0"), v("z"))
	return t
}

func fig1CTable() *Table { // Te: c-table
	t := New("T", 3)
	t.Global = cond.Conj(
		cond.NeqAtom(v("x"), k("1")),
		cond.NeqAtom(v("y"), k("2")),
	)
	t.Add(Row{
		Values: value.NewTuple(k("0"), k("1"), v("z")),
		Cond:   cond.Conj(cond.EqAtom(v("z"), v("z"))),
	})
	t.Add(Row{
		Values: value.NewTuple(k("0"), v("x"), v("y")),
		Cond:   cond.Conj(cond.EqAtom(v("y"), k("0"))),
	})
	t.Add(Row{
		Values: value.NewTuple(v("y"), v("x"), v("x")),
		Cond:   cond.Conj(cond.NeqAtom(v("x"), v("y"))),
	})
	return t
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		t    *Table
		want Kind
	}{
		{fig1Table(), KindCodd},
		{fig1ETable(), KindE},
		{fig1ITable(), KindI},
		{fig1GTable(), KindG},
		{fig1CTable(), KindC},
	}
	for _, tc := range cases {
		if got := tc.t.Kind(); got != tc.want {
			t.Errorf("Kind = %v, want %v for\n%s", got, tc.want, tc.t)
		}
	}
}

func TestKindExplicitEqualityGlobal(t *testing.T) {
	tb := New("T", 1)
	tb.Global = cond.Conj(cond.EqAtom(v("x"), k("1")))
	tb.AddTuple(v("x"))
	if tb.Kind() != KindE {
		t.Errorf("Kind = %v, want e-table", tb.Kind())
	}
	tb.Global = append(tb.Global, cond.NeqAtom(v("x"), k("2")))
	if tb.Kind() != KindG {
		t.Errorf("Kind = %v, want g-table", tb.Kind())
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindCodd: "table", KindE: "e-table", KindI: "i-table",
		KindG: "g-table", KindC: "c-table",
	}
	for kd, want := range names {
		if kd.String() != want {
			t.Errorf("%d renders %q", kd, kd.String())
		}
	}
}

func TestKindAtMost(t *testing.T) {
	if !KindCodd.AtMost(KindE) || !KindCodd.AtMost(KindI) {
		t.Error("Codd is below e and i")
	}
	if KindE.AtMost(KindI) || KindI.AtMost(KindE) {
		t.Error("e and i are incomparable")
	}
	if !KindE.AtMost(KindG) || !KindI.AtMost(KindG) || !KindG.AtMost(KindC) {
		t.Error("chain to c-table broken")
	}
	if KindC.AtMost(KindG) {
		t.Error("c-table is not below g-table")
	}
}

func TestDatabaseKindJoins(t *testing.T) {
	d := DB(fig1ETable())
	it := fig1ITable()
	it.Name = "U"
	// Rename i-table vars so that the vector is well-formed.
	it2 := it.Subst(value.Subst{v("x"): v("x2"), v("y"): v("y2"), v("z"): v("z2"), v("v"): v("v2")})
	d.AddTable(it2)
	if got := d.Kind(); got != KindG {
		t.Errorf("e-table + i-table vector must join to g-table, got %v", got)
	}
}

func TestDatabaseCrossTableSharedVarsMakeE(t *testing.T) {
	a := New("A", 1)
	a.AddTuple(v("x"))
	b := New("B", 1)
	b.AddTuple(v("x"))
	d := DB(a, b)
	if got := d.Kind(); got != KindE {
		t.Errorf("cross-table repeated variable must lift Codd to e-table, got %v", got)
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate must reject cross-table row variables")
	}
}

func TestVarsAndConsts(t *testing.T) {
	tb := fig1CTable()
	vars := tb.VarIDs(nil, map[sym.ID]bool{})
	if len(vars) != 3 { // x, y, z
		t.Errorf("VarIDs = %v", vars)
	}
	consts := tb.ConstIDs(nil, map[sym.ID]bool{})
	if len(consts) != 3 { // 1, 2, 0
		t.Errorf("ConstIDs = %v", consts)
	}
}

func TestSubstDeep(t *testing.T) {
	tb := fig1GTable()
	s := value.Subst{v("x"): k("5")}
	nt := tb.Subst(s)
	if nt.Rows[0].Values[2] != k("5") {
		t.Error("row substitution failed")
	}
	if nt.Global[0].L != k("5") {
		t.Error("global substitution failed")
	}
	if tb.Rows[0].Values[2] != v("x") {
		t.Error("Subst mutated receiver")
	}
}

func TestNormalizeIncorporatesEqualities(t *testing.T) {
	tb := New("T", 2)
	tb.Global = cond.Conj(
		cond.EqAtom(v("x"), k("7")),
		cond.EqAtom(v("y"), v("w")),
		cond.NeqAtom(v("w"), k("0")),
	)
	tb.AddTuple(v("x"), v("y"))
	tb.AddTuple(v("w"), k("1"))
	d, ok := Normalize(DB(tb))
	if !ok {
		t.Fatal("satisfiable global reported unsat")
	}
	nt := d.Table("T")
	if nt.Rows[0].Values[0] != k("7") {
		t.Errorf("x should be bound to 7: %v", nt.Rows[0])
	}
	// y and w merge to one representative variable.
	if nt.Rows[0].Values[1] != nt.Rows[1].Values[0] {
		t.Errorf("y and w should merge: %v vs %v", nt.Rows[0], nt.Rows[1])
	}
	g := d.GlobalConjunction()
	if len(g) != 1 || g[0].Op != cond.Neq {
		t.Errorf("residual global = %v, want single inequality", g)
	}
}

func TestNormalizeUnsat(t *testing.T) {
	tb := New("T", 1)
	tb.Global = cond.Conj(cond.EqAtom(v("x"), k("1")), cond.EqAtom(v("x"), k("2")))
	tb.AddTuple(v("x"))
	if _, ok := Normalize(DB(tb)); ok {
		t.Error("unsatisfiable global must report not-ok")
	}
	tb2 := New("T", 1)
	tb2.Global = cond.Conj(cond.NeqAtom(v("x"), v("x")))
	tb2.AddTuple(v("x"))
	if _, ok := Normalize(DB(tb2)); ok {
		t.Error("x≠x must report not-ok")
	}
}

func TestFreezeDistinctFresh(t *testing.T) {
	tb := fig1Table()
	d := DB(tb)
	inst := Freeze(d, "~f")
	r := inst.Relation("T")
	if r == nil || r.Len() != 3 {
		t.Fatalf("frozen instance wrong: %v", inst)
	}
	// x, v, y, z map to distinct constants; constants stay.
	seen := map[string]bool{}
	for _, f := range r.Facts() {
		for _, c := range f {
			seen[c] = true
		}
	}
	if !seen["0"] || !seen["1"] || !seen["2"] {
		t.Error("original constants lost")
	}
	fresh := 0
	for c := range seen {
		if strings.HasPrefix(c, "~f") {
			fresh++
		}
	}
	if fresh != 4 {
		t.Errorf("want 4 distinct fresh constants, got %d (%v)", fresh, seen)
	}
}

// TestNewDeltaInvariants: Base holds each constant of the databases, the
// instances and the query once, in name order, and the prefix avoids all
// of them — including ~z0, which only the query mentions, so the default
// prefix "~z" would mint it as the first fresh constant.
func TestNewDeltaInvariants(t *testing.T) {
	d1 := DB(fig1CTable()) // 0, 1, 2
	d2 := DB(New("S", 1).AddTuple(k("b")).AddTuple(v("u")))
	inst := rel.NewInstance()
	inst.EnsureRelation("S", 1).AddRow("a")
	inst.EnsureRelation("R", 2).AddRow("1", "b")
	delta := NewDelta([]string{"~z0", "b", "0"}, []*Database{d1, d2}, nil, inst)
	got := make([]string, len(delta.Base))
	for i, id := range delta.Base {
		got[i] = id.Name()
	}
	if want := []string{"0", "1", "2", "a", "b", "~z0"}; !slices.Equal(got, want) {
		t.Fatalf("Base = %v, want %v", got, want)
	}
	if delta.Prefix == "~z" {
		t.Fatal("prefix ~z mints ~z0, a constant of the query")
	}
	for _, c := range got {
		if strings.HasPrefix(c, delta.Prefix) {
			t.Errorf("constant %q starts with prefix %q", c, delta.Prefix)
		}
	}
	for _, f := range FreshConsts(delta.Prefix, 12) {
		if slices.Contains(delta.Base, f) {
			t.Errorf("fresh constant %s is in Base", f)
		}
	}
}

func TestFreshPrefixAvoidsClashes(t *testing.T) {
	p := freshPrefix([]sym.ID{sym.Const("a"), sym.Const("~z3"), sym.Const("b")})
	if p == "~z" {
		t.Error("prefix ~z clashes with pool entry ~z3")
	}
	if !strings.HasPrefix(p, "~z") {
		t.Errorf("unexpected prefix %q", p)
	}
	if freshPrefix([]sym.ID{sym.Const("plain")}) != "~z" {
		t.Error("clean pool should give ~z")
	}
}

func TestEmptyInstanceSchema(t *testing.T) {
	d := DB(fig1Table())
	e := d.EmptyInstance()
	if e.Relation("T") == nil || e.Relation("T").Len() != 0 {
		t.Error("EmptyInstance wrong")
	}
}

func TestStringRendering(t *testing.T) {
	s := fig1CTable().String()
	for _, want := range []string{"@table T(3)", "global:", "row:", "|"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

func TestSchemaAndSize(t *testing.T) {
	d := DB(fig1Table())
	s := d.Schema()
	if len(s) != 1 || s[0].Name != "T" || s[0].Arity != 3 {
		t.Errorf("Schema = %v", s)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	New("T", 2).AddTuple(k("1"))
}

func TestDuplicateTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate table must panic")
		}
	}()
	DB(New("T", 1), New("T", 1))
}

func TestSatisfiableGlobal(t *testing.T) {
	tb := New("T", 1)
	tb.AddTuple(v("x"))
	if !DB(tb).GlobalConjunction().Satisfiable() {
		t.Error("no condition must be satisfiable")
	}
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), v("x")))
	if DB(tb).GlobalConjunction().Satisfiable() {
		t.Error("x≠x must be unsatisfiable")
	}
}
