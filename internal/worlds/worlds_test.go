package worlds

import (
	"testing"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

func v(n string) sym.ID { return sym.Var(n) }
func k(n string) sym.ID { return sym.Const(n) }

func inst(vals ...string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 1)
	for _, x := range vals {
		r.AddRow(x)
	}
	return i
}

func TestWorldsOfGroundTable(t *testing.T) {
	tb := table.New("T", 1)
	tb.AddTuple(k("1"))
	tb.AddTuple(k("2"))
	ws := All(table.DB(tb))
	if len(ws) != 1 {
		t.Fatalf("ground table must have exactly one world, got %d", len(ws))
	}
	if !ws[0].Equal(inst("1", "2")) {
		t.Errorf("world = %v", ws[0])
	}
}

func TestWorldsOfSingleVariable(t *testing.T) {
	tb := table.New("T", 1)
	tb.AddTuple(v("x"))
	tb.AddTuple(k("1"))
	d := table.DB(tb)
	ws := All(d)
	// Over Δ ∪ Δ′ = {1, fresh}: worlds {(1)} and {(1),(fresh)}.
	if len(ws) != 2 {
		t.Fatalf("want 2 canonical worlds, got %d: %v", len(ws), ws)
	}
	if Count(d) != 2 {
		t.Error("Count disagrees with All")
	}
}

func TestWorldsRespectGlobalConditions(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), k("1")))
	tb.AddTuple(v("x"))
	tb.AddTuple(k("1"))
	ws := All(table.DB(tb))
	// x ranges over {fresh} only (≠1), so a single world {(1),(fresh)}.
	if len(ws) != 1 {
		t.Fatalf("want 1 world, got %d: %v", len(ws), ws)
	}
	if ws[0].Relation("T").Len() != 2 {
		t.Errorf("world = %v", ws[0])
	}
}

func TestWorldsRespectLocalConditions(t *testing.T) {
	tb := table.New("T", 1)
	tb.Add(table.Row{
		Values: sym.Tuple{k("9")},
		Cond:   cond.Conj(cond.EqAtom(v("x"), k("1"))),
	})
	tb.AddTuple(v("x"))
	ws := All(table.DB(tb))
	// Over Δ ∪ Δ′ = {1, 9, fresh}: x=1 gives {(9),(1)}, x=9 gives {(9)},
	// x=fresh gives {(fresh)}.
	if len(ws) != 3 {
		t.Fatalf("want 3 worlds, got %d: %v", len(ws), ws)
	}
	both := 0
	for _, w := range ws {
		r := w.Relation("T")
		if r.Has(rel.Fact{"1"}) {
			// The conditioned row fires exactly when x=1, which also makes
			// the bare row produce (1): (1) never appears without (9).
			if !r.Has(rel.Fact{"9"}) {
				t.Error("world with (1) must also contain (9)")
			}
			both++
		}
	}
	if both != 1 {
		t.Errorf("exactly one world contains (1), got %d", both)
	}
}

func TestUnsatisfiableGlobalMeansNoWorlds(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), v("x")))
	tb.AddTuple(v("x"))
	if n := Count(table.DB(tb)); n != 0 {
		t.Errorf("unsatisfiable global must yield 0 worlds, got %d", n)
	}
}

func TestEmptyWorldFromFailingLocals(t *testing.T) {
	// Definition 2.1 discussion: satisfying valuations that satisfy no
	// local condition give the empty relation.
	tb := table.New("T", 1)
	tb.Add(table.Row{
		Values: sym.Tuple{k("1")},
		Cond:   cond.Conj(cond.EqAtom(v("x"), k("1"))),
	})
	ws := All(table.DB(tb))
	foundEmpty := false
	for _, w := range ws {
		if w.Relation("T").Len() == 0 {
			foundEmpty = true
		}
	}
	if !foundEmpty {
		t.Errorf("expected the empty world among %v", ws)
	}
}

func TestMember(t *testing.T) {
	tb := table.New("T", 1)
	tb.AddTuple(v("x"))
	tb.AddTuple(k("1"))
	d := table.DB(tb)
	if !Member(inst("1"), d) {
		t.Error("{(1)} arises from x=1")
	}
	if !Member(inst("1", "5"), d) {
		t.Error("{(1),(5)} arises from x=5")
	}
	if Member(inst("5"), d) {
		t.Error("{(5)} cannot arise: (1) is unconditional")
	}
	if Member(inst("1", "5", "6"), d) {
		t.Error("three facts cannot arise from two rows")
	}
}

func TestMemberUsesInstanceConstants(t *testing.T) {
	// The valuation must reach constants that occur only in the instance.
	tb := table.New("T", 1)
	tb.AddTuple(v("x"))
	if !Member(inst("42"), table.DB(tb)) {
		t.Error("x must be able to take the instance constant 42")
	}
}

func TestPossibleAndCertain(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), k("2"))) // x ≠ 2
	tb.AddTuple(v("x"))
	tb.AddTuple(k("1"))
	d := table.DB(tb)
	if !Possible(inst("1"), d) {
		t.Error("(1) is possible (always present)")
	}
	if !Certain(inst("1"), d) {
		t.Error("(1) is certain")
	}
	if !Possible(inst("3"), d) {
		t.Error("(3) is possible via x=3")
	}
	if Certain(inst("3"), d) {
		t.Error("(3) is not certain")
	}
	if Possible(inst("2"), d) {
		t.Error("(2) is impossible: x≠2 and the other row is (1)")
	}
}

func TestEachEarlyStop(t *testing.T) {
	tb := table.New("T", 1)
	tb.AddTuple(v("x"))
	tb.AddTuple(v("y"))
	n := 0
	stopped := Each(table.DB(tb), nil, func(*rel.Instance) bool {
		n++
		return n == 2
	})
	if !stopped || n != 2 {
		t.Errorf("early stop broken: stopped=%v n=%d", stopped, n)
	}
}
