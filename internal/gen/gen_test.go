package gen

import (
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/table"
	"pw/internal/worlds"
)

func TestCoddTableIsCodd(t *testing.T) {
	tb := CoddTable(1, "T", 20, 3, 5, 0.4)
	if got := tb.Kind(); got != table.KindCodd {
		t.Errorf("kind = %v, want table", got)
	}
	if len(tb.Rows) != 20 || tb.Arity != 3 {
		t.Error("dimensions wrong")
	}
}

func TestETableKind(t *testing.T) {
	tb := ETable(2, "T", 30, 2, 5, 3, 0.6)
	k := tb.Kind()
	if k != table.KindE && k != table.KindCodd {
		t.Errorf("kind = %v, want e-table (or degenerate table)", k)
	}
}

func TestITableKind(t *testing.T) {
	tb := ITable(3, "T", 20, 2, 5, 4, 0.5)
	k := tb.Kind()
	if k != table.KindI && k != table.KindCodd {
		t.Errorf("kind = %v, want i-table", k)
	}
}

func TestCTableKind(t *testing.T) {
	tb := CTable(4, "T", 20, 2, 5, 4, 0.5, 1.0)
	if got := tb.Kind(); got != table.KindC {
		t.Errorf("kind = %v, want c-table", got)
	}
}

func TestDeterminism(t *testing.T) {
	a := CoddTable(7, "T", 10, 2, 5, 0.5)
	b := CoddTable(7, "T", 10, 2, 5, 0.5)
	if a.String() != b.String() {
		t.Error("same seed must give identical tables")
	}
	c := CoddTable(8, "T", 10, 2, 5, 0.5)
	if a.String() == c.String() {
		t.Error("different seeds should differ (overwhelmingly)")
	}
}

func TestMemberInstanceIsMember(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tb := CoddTable(seed, "T", 4, 2, 4, 0.5)
		d := table.DB(tb)
		i, ok := MemberInstance(seed, d)
		if !ok {
			t.Fatalf("seed %d: no member instance found", seed)
		}
		if !worlds.Member(i, d) {
			t.Errorf("seed %d: generated instance is not a member", seed)
		}
	}
}

func TestMemberInstanceUnsatisfiableGlobal(t *testing.T) {
	tb := CoddTable(1, "T", 2, 2, 4, 0.5)
	d := table.DB(tb)
	// Force an unsatisfiable global condition.
	d2, _ := worldsafeUnsat(d)
	if _, ok := MemberInstance(1, d2); ok {
		t.Error("no world exists, MemberInstance must report not-ok")
	}
}

// worldsafeUnsat clones d with a contradictory global condition.
func worldsafeUnsat(d *table.Database) (*table.Database, bool) {
	c := d.Clone()
	t := c.Tables()[0]
	t.Global = append(t.Global, cond.False())
	return c, true
}

func TestPerturbedInstanceDiffers(t *testing.T) {
	tb := CoddTable(5, "T", 5, 2, 4, 0.3)
	d := table.DB(tb)
	i, ok := MemberInstance(5, d)
	if !ok {
		t.Skip("no member sample")
	}
	p, ok := PerturbedInstance(5, i)
	if !ok {
		t.Skip("empty instance")
	}
	if p.Equal(i) {
		t.Error("perturbation must change the instance")
	}
	if p.Size() != i.Size()+1 {
		t.Errorf("perturbation should add one junk fact: %d vs %d", p.Size(), i.Size())
	}
}

// TestRandomPositiveQueryDeterministicAndValid: the paired query
// generator of the wsdalg differential suite is deterministic in the
// seed, always schema-valid, and always in the positive fragment.
func TestRandomPositiveQueryDeterministicAndValid(t *testing.T) {
	schema := table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}}
	for seed := int64(1); seed <= 64; seed++ {
		q1 := RandomPositiveQuery(seed, schema, 4, 3)
		q2 := RandomPositiveQuery(seed, schema, 4, 3)
		if len(q1.Outs) != len(q2.Outs) {
			t.Fatalf("seed %d: out counts differ", seed)
		}
		for i := range q1.Outs {
			if q1.Outs[i].Name != q2.Outs[i].Name || q1.Outs[i].Expr.String() != q2.Outs[i].Expr.String() {
				t.Fatalf("seed %d: regeneration differs:\n%s\nvs\n%s",
					seed, q1.Outs[i].Expr, q2.Outs[i].Expr)
			}
			if !algebra.Positive(q1.Outs[i].Expr) {
				t.Fatalf("seed %d: non-positive expression %s", seed, q1.Outs[i].Expr)
			}
			if _, err := q1.Outs[i].Expr.Schema(); err != nil {
				t.Fatalf("seed %d: invalid schema: %v", seed, err)
			}
		}
	}
	// Distinct seeds produce distinct queries often enough to be useful.
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		q := RandomPositiveQuery(seed, schema, 4, 3)
		distinct[q.Outs[0].Expr.String()] = true
	}
	if len(distinct) < 16 {
		t.Errorf("only %d distinct expressions across 32 seeds", len(distinct))
	}
}

func TestRandomPositiveQueryArityBound(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("arity beyond the column pool must panic with a clear message")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "arity") {
			t.Fatalf("panic %v should name the arity bound", r)
		}
	}()
	RandomPositiveQuery(1, table.Schema{{Name: "R", Arity: 9}}, 2, 0)
}
