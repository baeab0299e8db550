package decide

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pw/internal/cond"
	"pw/internal/datalog"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// sweep is the n·m oracle the indexed matching replaced: the rows of t
// that rowMatchesFact accepts for u, in row order.
func sweep(t *table.Table, u sym.Tuple) []int32 {
	var out []int32
	for r := range t.Rows {
		if rowMatchesFact(t.Rows[r], u) {
			out = append(out, int32(r))
		}
	}
	return out
}

// patternTable is a random table of the given arity mixing every row
// shape the pattern index groups: ground rows, all-variable rows, Codd
// rows, and rows repeating a variable.
func patternTable(rng *rand.Rand, arity, rows int, consts []string) *table.Table {
	t := table.New("T", arity)
	fresh := 0
	for i := 0; i < rows; i++ {
		shape := rng.Intn(4)
		vals := make([]sym.ID, arity)
		for c := range vals {
			switch {
			case shape == 0 || (shape >= 2 && rng.Intn(2) == 0): // ground row, or a constant cell
				vals[c] = sym.Const(consts[rng.Intn(len(consts))])
			case shape == 3 && rng.Intn(2) == 0: // a repeated variable
				vals[c] = sym.Var(fmt.Sprintf("r%d_%d", i, rng.Intn(2)))
			default:
				fresh++
				vals[c] = sym.Var(fmt.Sprintf("u%d", fresh))
			}
		}
		t.AddTuple(vals...)
	}
	return t
}

// TestMatcherMatchesSweep: on random tables of arity 1 to 10 (so rows
// repeat a variable far apart), the index-fed matcher lists exactly the
// rows of the full sweep, list for list.
func TestMatcherMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	consts := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		arity := 1 + trial%10
		tb := patternTable(rng, arity, 1+rng.Intn(40), consts)
		d := table.DB(tb)
		m := newMatcher(tb, d.Compiled())
		for f := 0; f < 30; f++ {
			u := make(sym.Tuple, arity)
			if f%2 == 0 && len(tb.Rows) > 0 {
				// Instantiate a row, so that matches are common.
				row := tb.Rows[rng.Intn(len(tb.Rows))]
				bind := map[sym.ID]sym.ID{}
				for c, v := range row.Values {
					u[c] = v
					if v.IsVar() {
						if _, ok := bind[v]; !ok {
							bind[v] = sym.Const(consts[rng.Intn(len(consts))])
						}
						u[c] = bind[v]
					}
				}
			} else {
				for c := range u {
					u[c] = sym.Const(consts[rng.Intn(len(consts))])
				}
			}
			want := sweep(tb, u)
			if got := m.rows(u); !slices.Equal(got, want) {
				t.Fatalf("trial %d fact %v: matcher %v, sweep %v\n%s", trial, u, got, want, tb)
			}
		}
	}
}

// TestMatchTestsBelowSweep pins the work the pattern index saves on the
// Fig3_MembMatching_128 input: the matching build runs at most one test
// per edge plus one per (fact, pattern group), strictly fewer than the
// facts × rows of the sweep, and the graph's edges are the sweep's.
func TestMatchTestsBelowSweep(t *testing.T) {
	const rows = 128
	d := table.DB(gen.CoddTable(rows, "T", rows, 3, 2*rows, 0.3))
	i0, ok := gen.MemberInstance(rows, d)
	if !ok {
		t.Fatal("no member instance")
	}
	c := obs.NewCost()
	if yes, err := (Options{Workers: 1, Cost: c}).Membership(i0, query.Identity{}, d); err != nil || !yes {
		t.Fatalf("membership = %v, %v; want yes", yes, err)
	}
	tb := d.Tables()[0]
	facts := i0.Relation("T").Tuples()
	edges := 0
	for _, u := range facts {
		edges += len(sweep(tb, u))
	}
	groups := d.Compiled().Index("T").Groups()
	tests := c.Get(obs.DecideMatchTests)
	if bound := int64(edges + len(facts)*groups); tests > bound {
		t.Errorf("match tests = %d, above edges + facts × groups = %d + %d × %d", tests, edges, len(facts), groups)
	}
	if sweepTests := int64(len(facts) * len(tb.Rows)); tests >= sweepTests {
		t.Errorf("match tests = %d, not below the sweep's facts × rows = %d", tests, sweepTests)
	}
	t.Logf("match tests %d, edges %d, facts %d × groups %d, sweep %d", tests, edges, len(facts), groups, len(facts)*len(tb.Rows))
}

// TestCertainLookupAgreesWithFreeze: CERT of the identity query is a
// lookup among the normal form's ground rows. It must agree with the
// Freeze + Eval path (reached through a copying Datalog query, which is
// homomorphism-preserved but not the identity) and with the worlds
// oracle, also when p and the table carry constants shaped like the
// frozen ones (~z0, ~zz1), which push the fresh prefix further out.
func TestCertainLookupAgreesWithFreeze(t *testing.T) {
	copyQ := query.NewDatalog("copy", datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("Q", sym.Var("x"), sym.Var("y")),
			datalog.At("T", sym.Var("x"), sym.Var("y"))),
	}}, "Q")
	consts := []string{"1", "2", "~z0", "~zz1"}
	rng := rand.New(rand.NewSource(53))
	seen := map[bool]int{}
	for trial := 0; trial < 150; trial++ {
		tb := table.New("T", 2)
		for r, n := 0, 1+rng.Intn(3); r < n; r++ {
			cell := func(c int) sym.ID {
				if rng.Intn(3) == 0 {
					return sym.Var(fmt.Sprintf("x%d_%d", r, c))
				}
				return sym.Const(consts[rng.Intn(len(consts))])
			}
			tb.AddTuple(cell(0), cell(1))
		}
		if rng.Intn(2) == 0 && len(tb.Rows) > 0 {
			// A global condition: an equality pinning a variable (the
			// normal form differs from the table) or an inequality.
			row := tb.Rows[rng.Intn(len(tb.Rows))]
			op := cond.Eq
			if rng.Intn(2) == 0 {
				op = cond.Neq
			}
			tb.Global = cond.Conj(cond.Atom{Op: op, L: row.Values[0], R: sym.Const(consts[rng.Intn(len(consts))])})
		}
		d := table.DB(tb)
		pT, pQ := rel.NewInstance(), rel.NewInstance()
		rT, rQ := pT.EnsureRelation("T", 2), pQ.EnsureRelation("Q", 2)
		for n := rng.Intn(3); n > 0; n-- {
			f := rel.Fact{consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]}
			rT.Add(f)
			rQ.Add(f)
		}
		if extra := rng.Intn(4); extra < 2 {
			// A relation no table (and no query output) has: certain
			// only while it is empty.
			sT, sQ := pT.EnsureRelation("S", 1), pQ.EnsureRelation("S", 1)
			if extra == 0 {
				sT.AddRow("1")
				sQ.AddRow("1")
			}
		}
		lookup, err := Options{}.Certain(pT, query.Identity{}, d)
		if err != nil {
			t.Fatal(err)
		}
		frozen, err := Options{}.Certain(pQ, copyQ, d)
		if err != nil {
			t.Fatal(err)
		}
		oracle := bruteCertView(pT, query.Identity{}, d)
		if lookup != frozen || lookup != oracle {
			t.Fatalf("trial %d: lookup=%v freeze=%v oracle=%v\nDB:\n%s\nP:\n%s", trial, lookup, frozen, oracle, d, pT)
		}
		seen[lookup]++
	}
	if seen[true] < 10 || seen[false] < 10 {
		t.Errorf("verdicts %v: the trials must exercise both answers", seen)
	}
}
