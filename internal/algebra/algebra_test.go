package algebra

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
	"pw/internal/worlds"
)

func v(n string) value.Value { return value.Var(n) }
func k(n string) value.Value { return value.Const(n) }

func sampleInstance() *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("R", 2)
	r.AddRow("1", "2")
	r.AddRow("2", "3")
	r.AddRow("3", "3")
	s := i.EnsureRelation("S", 1)
	s.AddRow("2")
	s.AddRow("9")
	return i
}

func evalFacts(t *testing.T, e Expr, i *rel.Instance) []rel.Fact {
	t.Helper()
	r, err := EvalToRelation(e, i, "Q")
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return r.Facts()
}

func TestScan(t *testing.T) {
	fs := evalFacts(t, Scan("R", "a", "b"), sampleInstance())
	if len(fs) != 3 {
		t.Errorf("scan = %v", fs)
	}
}

func TestScanArityMismatch(t *testing.T) {
	if _, err := EvalToRelation(Scan("R", "a"), sampleInstance(), "Q"); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := EvalToRelation(Scan("Z", "a"), sampleInstance(), "Q"); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestProject(t *testing.T) {
	fs := evalFacts(t, Project{E: Scan("R", "a", "b"), Cols: []string{"b"}}, sampleInstance())
	if len(fs) != 2 { // {2, 3} deduplicated
		t.Errorf("project = %v", fs)
	}
	// Reordering columns.
	fs = evalFacts(t, Project{E: Scan("R", "a", "b"), Cols: []string{"b", "a"}}, sampleInstance())
	if fs[0][0] != "2" || fs[0][1] != "1" {
		t.Errorf("column reorder broken: %v", fs)
	}
	if _, err := EvalToRelation(Project{E: Scan("R", "a", "b"), Cols: []string{"zz"}}, sampleInstance(), "Q"); err == nil {
		t.Error("unknown projected column must error")
	}
}

func TestSelect(t *testing.T) {
	fs := evalFacts(t, Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("2"))), sampleInstance())
	if len(fs) != 1 || fs[0][0] != "2" {
		t.Errorf("select = %v", fs)
	}
	fs = evalFacts(t, Where(Scan("R", "a", "b"), EqP(Col("a"), Col("b"))), sampleInstance())
	if len(fs) != 1 || fs[0][0] != "3" {
		t.Errorf("select a=b = %v", fs)
	}
	fs = evalFacts(t, Where(Scan("R", "a", "b"), NeqP(Col("a"), Col("b"))), sampleInstance())
	if len(fs) != 2 {
		t.Errorf("select a≠b = %v", fs)
	}
}

func TestJoin(t *testing.T) {
	// R(a,b) ⋈ S(b): natural join on b.
	fs := evalFacts(t, Join{L: Scan("R", "a", "b"), R: Scan("S", "b")}, sampleInstance())
	if len(fs) != 1 || fs[0][0] != "1" || fs[0][1] != "2" {
		t.Errorf("join = %v", fs)
	}
	// Cartesian product when no shared columns: 3 × 2 = 6.
	fs = evalFacts(t, Join{L: Scan("R", "a", "b"), R: Scan("S", "c")}, sampleInstance())
	if len(fs) != 6 {
		t.Errorf("product size = %d", len(fs))
	}
}

func TestUnion(t *testing.T) {
	u := Union{
		L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
		R: Scan("S", "a"),
	}
	fs := evalFacts(t, u, sampleInstance())
	if len(fs) != 4 { // {1,2,3} ∪ {2,9}
		t.Errorf("union = %v", fs)
	}
	bad := Union{L: Scan("R", "a", "b"), R: Scan("S", "a")}
	if _, err := EvalToRelation(bad, sampleInstance(), "Q"); err == nil {
		t.Error("arity mismatch union must error")
	}
}

func TestRename(t *testing.T) {
	e := Join{
		L: Scan("R", "a", "b"),
		R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}},
	}
	// R(a,b) ⋈ R(b,c): composition, pairs (a,c) with a->b->c.
	fs := evalFacts(t, Project{E: e, Cols: []string{"a", "c"}}, sampleInstance())
	want := map[string]bool{"1\x003": true, "2\x003": true, "3\x003": true}
	if len(fs) != len(want) {
		t.Fatalf("composition = %v", fs)
	}
	for _, f := range fs {
		if !want[f.Key()] {
			t.Errorf("unexpected %v", f)
		}
	}
}

func TestPositivity(t *testing.T) {
	if !Positive(Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1")))) {
		t.Error("equality select is positive")
	}
	if Positive(Where(Scan("R", "a", "b"), NeqP(Col("a"), Lit("1")))) {
		t.Error("inequality select is not positive")
	}
}

func TestConstsCollected(t *testing.T) {
	e := Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("7")), NeqP(Col("b"), Lit("8")))
	cs := Consts(e)
	if len(cs) != 2 || cs[0] != "7" || cs[1] != "8" {
		t.Errorf("consts = %v", cs)
	}
}

// foreignExpr is an expression type Map has no case for.
type foreignExpr struct{ Rel }

// TestWalkReachesEveryOperand: Walk visits every node of a tree using
// each operator, operands before their node and left before right, and
// Map refuses an expression type it does not know instead of treating
// it as a leaf.
func TestWalkReachesEveryOperand(t *testing.T) {
	r, s := Scan("R", "a"), Scan("S", "a")
	e := Union{
		L: Diff{L: Possible{E: Project{E: Where(r, EqP(Col("a"), Lit("1"))), Cols: []string{"a"}}}, R: Certain{E: s}},
		R: Join{L: ChoiceOf{E: Rename{E: Scan("T", "b"), From: []string{"b"}, To: []string{"a"}}}, R: Values("a", "2")},
	}
	var got []string
	Walk(e, func(n Expr) {
		if sc, ok := n.(Rel); ok {
			got = append(got, sc.Name)
		} else {
			got = append(got, fmt.Sprintf("%T", n)[len("algebra."):])
		}
	})
	want := "R Select Project Possible S Certain Diff T Rename ChoiceOf ConstRel Join Union"
	if strings.Join(got, " ") != want {
		t.Errorf("walk order = %v, want %s", got, want)
	}
	if cs := Consts(e); strings.Join(cs, " ") != "1 2" {
		t.Errorf("consts = %v", cs)
	}
	if Positive(e) || !HasWorldSetOps(e) {
		t.Error("possible, certain, choiceof and diff are not positive")
	}
	defer func() {
		if recover() == nil {
			t.Error("Map must refuse an expression type it has no case for")
		}
	}()
	Map(foreignExpr{r}, func(c Expr) Expr { return c })
}

func TestDuplicateColumnRejected(t *testing.T) {
	if _, err := Scan("R", "a", "a").Schema(); err == nil {
		t.Error("duplicate scan columns must error")
	}
	r := Rename{E: Scan("R", "a", "b"), From: []string{"a"}, To: []string{"b"}}
	if _, err := r.Schema(); err == nil {
		t.Error("rename creating duplicates must error")
	}
}

// --- Lifted evaluation ---

func liftedWorlds(t *testing.T, e Expr, d *table.Database) map[string]bool {
	t.Helper()
	out, err := EvalToTable(e, d, "Q")
	if err != nil {
		t.Fatalf("lift %s: %v", e, err)
	}
	res := map[string]bool{}
	ld := table.DB(out)
	worlds.Each(ld, sharedDomain(d, e), func(i *rel.Instance) bool {
		res[i.Key()] = true
		return false
	})
	return res
}

func directWorlds(t *testing.T, e Expr, d *table.Database) map[string]bool {
	t.Helper()
	res := map[string]bool{}
	worlds.Each(d, sharedDomain(d, e), func(i *rel.Instance) bool {
		r, err := EvalToRelation(e, i, "Q")
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		o := rel.NewInstance()
		o.AddRelation(r)
		res[o.Key()] = true
		return false
	})
	return res
}

// sharedDomain gives both sides of the property the same valuation domain:
// the constants of the database and the expression plus one fresh constant
// per database variable (the lifted table mentions no variables beyond
// d's, so this is the canonical Δ ∪ Δ′ for both).
func sharedDomain(d *table.Database, e Expr) []sym.ID {
	delta := table.NewDelta(Consts(e), []*table.Database{d})
	return append(delta.Base, table.FreshConsts(delta.Prefix, len(d.VarNames()))...)
}

func sampleDatabase() *table.Database {
	r := table.New("R", 2)
	r.AddTuple(k("1"), v("x"))
	r.AddTuple(v("y"), k("3"))
	s := table.New("S", 1)
	s.AddTuple(v("z"))
	return table.DB(r, s)
}

// TestLiftedMatchesDirect is the representation-system property on a fixed
// battery of expressions: rep(q(T)) = q(rep(T)).
func TestLiftedMatchesDirect(t *testing.T) {
	exprs := []Expr{
		Scan("R", "a", "b"),
		Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
		Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1"))),
		Where(Scan("R", "a", "b"), EqP(Col("a"), Col("b"))),
		Where(Scan("R", "a", "b"), NeqP(Col("a"), Col("b"))),
		Join{L: Scan("R", "a", "b"), R: Scan("S", "b")},
		Join{L: Scan("R", "a", "b"), R: Scan("S", "c")},
		Union{L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}}, R: Scan("S", "a")},
		Join{L: Scan("R", "a", "b"),
			R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}}},
	}
	d := sampleDatabase()
	for _, e := range exprs {
		got := liftedWorlds(t, e, d)
		want := directWorlds(t, e, d)
		if len(got) != len(want) {
			t.Errorf("%s: lifted %d worlds, direct %d", e, len(got), len(want))
			continue
		}
		for kk := range want {
			if !got[kk] {
				t.Errorf("%s: direct world missing from lifted set", e)
			}
		}
	}
}

// TestLiftedMatchesDirectRandom drives the same property over random
// c-tables (with conditions) and random small expressions.
func TestLiftedMatchesDirectRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomCTableDB(rng)
		e := randomExpr(rng)
		got := liftedWorlds(t, e, d)
		want := directWorlds(t, e, d)
		if len(got) != len(want) {
			return false
		}
		for kk := range want {
			if !got[kk] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomCTableDB(rng *rand.Rand) *table.Database {
	vals := []value.Value{k("1"), k("2"), v("x"), v("y"), v("z")}
	pick := func() value.Value { return vals[rng.Intn(len(vals))] }
	r := table.New("R", 2)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		row := table.Row{Values: value.NewTuple(pick(), pick())}
		if rng.Intn(2) == 0 {
			op := cond.Eq
			if rng.Intn(2) == 0 {
				op = cond.Neq
			}
			row.Cond = cond.Conj(cond.Atom{Op: op, L: pick(), R: pick()})
		}
		r.Add(row)
	}
	if rng.Intn(3) == 0 {
		r.Global = cond.Conj(cond.NeqAtom(v("x"), k("1")))
	}
	s := table.New("S", 1)
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		s.Add(table.Row{Values: value.NewTuple(pick())})
	}
	return table.DB(r, s)
}

func randomExpr(rng *rand.Rand) Expr {
	switch rng.Intn(6) {
	case 0:
		return Scan("R", "a", "b")
	case 1:
		return Project{E: Scan("R", "a", "b"), Cols: []string{"b"}}
	case 2:
		return Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1")))
	case 3:
		return Where(Scan("R", "a", "b"), NeqP(Col("b"), Lit("2")))
	case 4:
		return Join{L: Scan("R", "a", "b"), R: Scan("S", "b")}
	default:
		return Union{
			L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
			R: Scan("S", "a"),
		}
	}
}

func TestEvalToTableCarriesGlobal(t *testing.T) {
	d := sampleDatabase()
	d.Table("R").Global = cond.Conj(cond.NeqAtom(v("x"), k("9")))
	out, err := EvalToTable(Scan("R", "a", "b"), d, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Global) != 1 {
		t.Errorf("global not carried: %v", out.Global)
	}
}

func TestLiftedJoinPrunesContradictions(t *testing.T) {
	// Joining rows (1,x) and (2,y) on the first column forces 1=2: pruned.
	r := table.New("R", 2)
	r.AddTuple(k("1"), v("x"))
	d := table.DB(r)
	e := Join{
		L: Scan("R", "a", "b"),
		R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}},
	}
	out, err := EvalToTable(e, d, "Q")
	if err != nil {
		t.Fatal(err)
	}
	// (1,x)⋈(1,x) on b: needs x=1, kept with condition; result rows must
	// all have satisfiable conditions.
	for _, row := range out.Rows {
		if !row.Cond.Satisfiable() {
			t.Errorf("unsatisfiable row survived: %v", row)
		}
	}
}
