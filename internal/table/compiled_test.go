package table

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pw/internal/cond"
	"pw/internal/sym"
)

// constantsAgree is the brute-force form of a candidate: every constant
// of the row equals f's value in its column.
func constantsAgree(row Row, f sym.Tuple) bool {
	for c, v := range row.Values {
		if !v.IsVar() && v != f[c] {
			return false
		}
	}
	return true
}

// TestRowIndexMatchesBruteForce: on random tables of arity 1 to 10 with
// ground rows, all-variable rows, Codd rows and repeated variables, the
// index's candidates are exactly the rows whose constants agree with
// the fact, in row order, and HasGround finds exactly the
// variable-free rows equal to it.
func TestRowIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	consts := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		arity := 1 + trial%10
		tb := New("T", arity)
		for r, n := 0, rng.Intn(50); r < n; r++ {
			shape := rng.Intn(4) // 0 ground, 1 all-variable, 2 Codd, 3 repeated variable
			vals := make([]sym.ID, arity)
			for c := range vals {
				switch {
				case shape == 0 || (shape >= 2 && rng.Intn(2) == 0):
					vals[c] = k(consts[rng.Intn(len(consts))])
				case shape == 3:
					vals[c] = v(fmt.Sprintf("r%d_%d", r, rng.Intn(2)))
				default:
					vals[c] = v(fmt.Sprintf("x%d_%d", r, c))
				}
			}
			tb.AddTuple(vals...)
		}
		ix := newRowIndex(tb)
		allGround := true
		for _, row := range tb.Rows {
			allGround = allGround && !slices.ContainsFunc(row.Values, sym.ID.IsVar)
		}
		if ix.AllGround() != allGround {
			t.Fatalf("trial %d: AllGround = %v, want %v", trial, ix.AllGround(), allGround)
		}
		var buf []int32
		for f := 0; f < 40; f++ {
			u := make(sym.Tuple, arity)
			for c := range u {
				u[c] = sym.Const(consts[rng.Intn(len(consts))])
			}
			var want []int32
			wantGround := false
			for r, row := range tb.Rows {
				if constantsAgree(row, u) {
					want = append(want, int32(r))
					wantGround = wantGround || !slices.ContainsFunc(row.Values, sym.ID.IsVar)
				}
			}
			buf = ix.Candidates(buf[:0], u)
			if !slices.Equal(buf, want) {
				t.Fatalf("trial %d fact %v: candidates %v, want %v\n%s", trial, u, buf, want, tb)
			}
			if got := ix.HasGround(u); got != wantGround {
				t.Fatalf("trial %d fact %v: HasGround = %v, want %v\n%s", trial, u, got, wantGround, tb)
			}
		}
	}
}

// TestCompiledNormalForm: without a global condition the normal form is
// the database itself; with one it is a fresh database whose own
// compiled form is the same state, so a decision handed the normal form
// does not normalize again.
func TestCompiledNormalForm(t *testing.T) {
	plain := DB(fig1Table())
	if c := plain.Compiled(); c.Norm != plain || c.Kind != KindCodd {
		t.Fatalf("plain: Norm aliased = %v, kind %v", c.Norm == plain, c.Kind)
	}
	tb := New("T", 2)
	tb.AddTuple(v("x"), k("1"))
	tb.AddTuple(v("y"), v("z"))
	tb.Global = cond.Conj(cond.EqAtom(v("x"), k("0")), cond.NeqAtom(v("y"), k("2")))
	d := DB(tb)
	c := d.Compiled()
	if c.Norm == nil || c.Norm == d {
		t.Fatalf("global equality: Norm = %v, want a fresh database", c.Norm)
	}
	if got := c.Norm.Tables()[0].Rows[0].Values; slices.ContainsFunc(got, sym.ID.IsVar) {
		t.Errorf("normal form row 0 = %v, want x replaced by 0", got)
	}
	nc := c.Norm.Compiled()
	if nc.Norm != c.Norm || nc.Kind != c.Kind || nc.Index("T") == nil || nc.Index("T").t != c.Index("T").t {
		t.Errorf("the normal form's compiled form is not the database's: %+v vs %+v", nc, c)
	}
	if !nc.Index("T").HasGround(sym.Tuple{sym.Const("0"), sym.Const("1")}) {
		t.Error("ground row (0, 1) of the normal form not found")
	}
	unsat := New("U", 1)
	unsat.AddTuple(v("x"))
	unsat.Global = cond.Conj(cond.EqAtom(v("x"), k("0")), cond.EqAtom(v("x"), k("1")))
	if c := DB(unsat).Compiled(); c.Norm != nil || c.Index("U") != nil {
		t.Errorf("unsatisfiable global: Norm = %v", c.Norm)
	}
}

// TestAddTableDropsCompiled: AddTable drops the compiled form, and the
// next use compiles the grown database.
func TestAddTableDropsCompiled(t *testing.T) {
	d := DB(fig1Table())
	first := d.Compiled()
	if LoadedCompiled(d) != first || d.Compiled() != first {
		t.Fatal("compiled form not published once")
	}
	s := New("S", 1)
	s.AddTuple(k("a"))
	d.AddTable(s)
	if LoadedCompiled(d) != nil {
		t.Fatal("AddTable kept the compiled form")
	}
	next := d.Compiled()
	if next == first || next.Index("S") == nil {
		t.Fatal("compiled form not rebuilt over the added table")
	}
}

// TestCompiledConcurrentFirstUse: goroutines racing on the first use
// all receive the one published value.
func TestCompiledConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := DB(fig1Table())
		const n = 8
		got := make([]*Compiled, n)
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				start.Wait()
				got[g] = d.Compiled()
			}(g)
		}
		start.Done()
		wg.Wait()
		published := LoadedCompiled(d)
		for g, c := range got {
			if c == nil || c != published {
				t.Fatalf("round %d: goroutine %d got %p, published %p", round, g, c, published)
			}
		}
	}
}
