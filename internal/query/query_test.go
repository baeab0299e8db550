package query

import (
	"errors"
	"testing"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/datalog"
	"pw/internal/fo"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

func sampleInstance() *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("R", 2)
	r.AddRow("1", "2")
	r.AddRow("2", "2")
	return i
}

func TestIdentity(t *testing.T) {
	q := Identity{}
	i := sampleInstance()
	out, err := q.Eval(i)
	if err != nil || out != i {
		t.Errorf("identity must return its input: %v %v", out, err)
	}
	if !IsIdentity(q) || IsIdentity(Algebra{}) {
		t.Error("IsIdentity broken")
	}
	if len(q.Consts()) != 0 {
		t.Error("identity mentions no constants")
	}
	if !IsHomPreserved(q) {
		t.Error("identity is hom-preserved")
	}
	d := table.DB(table.New("R", 2))
	ld, err := q.EvalLifted(d)
	if err != nil || ld != d {
		t.Error("identity lift must return its input")
	}
}

func TestAlgebraQueryEvalAndLift(t *testing.T) {
	q := NewAlgebra("diag",
		Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("R", "a", "b"), algebra.EqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
	out, err := q.Eval(sampleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Relation("Q"); r == nil || r.Len() != 1 || !r.Has(rel.Fact{"2"}) {
		t.Errorf("Q = %v", out)
	}
	if !q.Positive() || !IsHomPreserved(q) {
		t.Error("equality-only query is positive and hom-preserved")
	}
	if _, ok := AsLiftable(q); !ok {
		t.Error("algebra queries are liftable")
	}

	// Lift over a table with a variable.
	tb := table.New("R", 2)
	tb.AddTuple(sym.Const("1"), sym.Var("x"))
	lifted, err := q.EvalLifted(table.DB(tb))
	if err != nil {
		t.Fatal(err)
	}
	lt := lifted.Table("Q")
	if lt == nil || len(lt.Rows) != 1 {
		t.Fatalf("lifted = %v", lifted)
	}
	if len(lt.Rows[0].Cond) == 0 {
		t.Error("lifted row must carry the selection condition x=1")
	}
}

func TestAlgebraNegativePositivity(t *testing.T) {
	q := NewAlgebra("neq",
		Out{Name: "Q", Expr: algebra.Where(algebra.Scan("R", "a", "b"),
			algebra.NeqP(algebra.Col("a"), algebra.Col("b")))})
	if q.Positive() || IsHomPreserved(q) {
		t.Error("≠ select must not be positive/hom-preserved")
	}
	if _, ok := AsLiftable(q); !ok {
		t.Error("≠ selects are still liftable")
	}
}

func TestAlgebraConstsAndLabel(t *testing.T) {
	q := NewAlgebra("",
		Out{Name: "Q", Expr: algebra.Where(algebra.Scan("R", "a", "b"),
			algebra.EqP(algebra.Col("a"), algebra.Lit("7")))})
	if q.Label() != "algebra" {
		t.Errorf("default label = %q", q.Label())
	}
	cs := q.Consts()
	if len(cs) != 1 || cs[0] != "7" {
		t.Errorf("consts = %v", cs)
	}
}

func TestAlgebraVectorOutput(t *testing.T) {
	q := NewAlgebra("pair",
		Out{Name: "A", Expr: algebra.Project{E: algebra.Scan("R", "a", "b"), Cols: []string{"a"}}},
		Out{Name: "B", Expr: algebra.Project{E: algebra.Scan("R", "a", "b"), Cols: []string{"b"}}},
	)
	out, err := q.Eval(sampleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("A") == nil || out.Relation("B") == nil {
		t.Fatalf("vector output = %v", out)
	}
	// Lifted: the global condition must be carried exactly once.
	tb := table.New("R", 2)
	tb.AddTuple(sym.Var("x"), sym.Var("y"))
	tb.Global = append(tb.Global, cond.NeqAtom(sym.Var("x"), sym.Var("y")))
	lifted, err := q.EvalLifted(table.DB(tb))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, lt := range lifted.Tables() {
		n += len(lt.Global)
	}
	if n != 1 {
		t.Errorf("global condition must be carried once, found %d atoms", n)
	}
}

func TestFOQuery(t *testing.T) {
	q := NewFO("probe", FOOut{Name: "Q", Q: fo.Query{
		Head: []string{"x"},
		Body: fo.Exists{Vars: []string{"y"}, F: fo.At("R", sym.Var("x"), sym.Var("y"))},
	}})
	out, err := q.Eval(sampleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Relation("Q"); r == nil || r.Len() != 2 {
		t.Errorf("Q = %v", out)
	}
	if _, ok := AsLiftable(q); ok {
		t.Error("first-order queries are not liftable")
	}
	if IsHomPreserved(q) {
		t.Error("first-order queries are not marked hom-preserved")
	}
	if q.Label() != "probe" {
		t.Errorf("label = %q", q.Label())
	}
}

func TestDatalogQuery(t *testing.T) {
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("Q", sym.Var("x")),
			datalog.At("R", sym.Var("x"), sym.Var("x"))),
	}}
	q := NewDatalog("loops", prog, "Q")
	out, err := q.Eval(sampleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Relation("Q"); r == nil || r.Len() != 1 || !r.Has(rel.Fact{"2"}) {
		t.Errorf("Q = %v", out)
	}
	if !IsHomPreserved(q) {
		t.Error("datalog is hom-preserved")
	}
	if _, ok := AsLiftable(q); ok {
		t.Error("datalog is not liftable")
	}
	bad := NewDatalog("bad", prog, "Missing")
	if _, err := bad.Eval(sampleInstance()); err == nil {
		t.Error("unknown output predicate must error")
	}
}

// TestAlgebraEvalRefusesWorldSetOps: a complete instance is one world,
// not the set of worlds possible, certain and choiceof range over, so
// Eval refuses them with algebra.ErrWorldSetOp wherever they sit in an
// output.
func TestAlgebraEvalRefusesWorldSetOps(t *testing.T) {
	r := algebra.Scan("R", "a", "b")
	for _, op := range []algebra.Expr{algebra.Possible{E: r}, algebra.Certain{E: r}, algebra.ChoiceOf{E: r}} {
		for _, e := range []algebra.Expr{
			algebra.Project{E: op, Cols: []string{"a"}},
			algebra.Join{L: r, R: op},
			algebra.Union{L: op, R: r},
		} {
			_, err := NewAlgebra("ws", Out{Name: "Q", Expr: e}).Eval(sampleInstance())
			if !errors.Is(err, algebra.ErrWorldSetOp) {
				t.Errorf("Eval(%s) = %v, want ErrWorldSetOp", e, err)
			}
		}
	}
}
