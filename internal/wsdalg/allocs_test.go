package wsdalg_test

import (
	"bytes"
	"fmt"
	"testing"

	"pw/internal/algebra"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// rowsWSD builds a tuple-level decomposition over R(k, g, v) of comps
// two-way components. Both alternatives of component c carry the keys
// c.0 … c.(rows-1); alternative 0 gives them the values lo and mid in
// turn, alternative 1 hi and top. Decompositions built with different
// rows have the same components, units and parts under every query
// below; only the rows per alternative differ.
func rowsWSD(t *testing.T, comps, rows int) *wsd.WSD {
	t.Helper()
	w := wsd.New(table.Schema{{Name: "R", Arity: 3}})
	vals := [2][2]string{{"lo", "mid"}, {"hi", "top"}}
	for c := 0; c < comps; c++ {
		alts := make([]wsd.Alt, 2)
		for a := range alts {
			for i := 0; i < rows; i++ {
				k := fmt.Sprintf("c%d.%d", c, i)
				alts[a] = append(alts[a], wsd.Fact{Rel: "R", Args: rel.Fact{k, fmt.Sprintf("g%d", c%4), vals[a][i%2]}})
			}
		}
		if err := w.AddComponent(alts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// allocsQueries are a σ that keeps part of some alternatives, a π that
// keeps every row, a ⋈ with a constant relation, and a difference with
// a constant relation over the same columns (whose right side has no
// origins, so each left part keeps its own space), each read through
// the observed Eval a server runs.
func allocsQueries() map[string]query.Query {
	r := algebra.Scan("R", "k", "g", "v")
	return map[string]query.Query{
		"select":  outA(algebra.Where(r, algebra.EqP(algebra.Col("v"), algebra.Lit("lo")))),
		"project": outA(algebra.Project{E: r, Cols: []string{"k"}}),
		"join": outA(algebra.Join{L: r, R: algebra.ConstRel{Cols: []string{"v", "w"},
			Rows: [][]string{{"lo", "x1"}, {"top", "x2"}}}}),
		"diff": outA(algebra.Diff{L: r, R: algebra.ConstRel{Cols: []string{"k", "g", "v"},
			Rows: [][]string{{"c0.0", "g0", "lo"}, {"c1.1", "g1", "top"}}}}),
	}
}

// TestEvalAllocsFollowParts: an evaluation allocates per part, not per
// row. Two decompositions with the same components, one with ten times
// the rows per alternative, cost the same allocations up to a small
// constant (the evaluator's scratch growing a few more times). The
// bound is far below one allocation per extra alternative, let alone
// per extra row (40 components: 80 alternatives, 1440 extra rows).
func TestEvalAllocsFollowParts(t *testing.T) {
	const comps, slack = 40, 24
	small, large := rowsWSD(t, comps, 2), rowsWSD(t, comps, 20)
	for name, q := range allocsQueries() {
		allocs := func(w *wsd.WSD) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, _, _, err := wsdalg.Eval(w, q, wsdalg.Options{Cost: obs.NewCost()}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocs at 2 rows per alternative, %.0f at 20", name, a, b)
		if b-a > slack {
			t.Errorf("%s: %.0f allocs at 20 rows per alternative, %.0f at 2: more than %d apart, so some allocation follows the rows",
				name, b, a, slack)
		}
	}
}

// printAnswers renders every possible and certain set of a as the
// server prints them.
func printAnswers(t *testing.T, a *wsdalg.Answers) string {
	t.Helper()
	var b bytes.Buffer
	for ri, r := range a.Schema() {
		poss, err := a.Possible(ri)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range [][]sym.Tuple{poss, a.Certain(ri)} {
			if err := parse.PrintRelation(&b, r.Name, r.Arity, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.String()
}

// TestCachedAnswersSurviveLaterEvals: answers a cache keeps own their
// rows. Later projection and join evaluations on the same decomposition
// — which lay their rows out in evaluator scratch of the same shapes —
// leave the kept answers' printed bytes unchanged.
func TestCachedAnswersSurviveLaterEvals(t *testing.T) {
	w := rowsWSD(t, 12, 3)
	r := algebra.Scan("R", "k", "g", "v")
	join := algebra.Join{L: r, R: algebra.ConstRel{Cols: []string{"v", "w"}, Rows: [][]string{{"lo", "x1"}, {"hi", "x2"}}}}
	kept := query.NewAlgebra("kept",
		query.Out{Name: "A", Expr: algebra.Project{E: r, Cols: []string{"k", "v"}}},
		query.Out{Name: "B", Expr: join})
	a, _, _, err := wsdalg.Eval(w, kept, wsdalg.Options{Cost: obs.NewCost()})
	if err != nil {
		t.Fatal(err)
	}
	want := printAnswers(t, a)
	for i := 0; i < 8; i++ {
		g := algebra.Where(r, algebra.EqP(algebra.Col("g"), algebra.Lit(fmt.Sprintf("g%d", i%4))))
		for _, e := range []algebra.Expr{
			algebra.Project{E: g, Cols: []string{"k", "v"}},
			algebra.Project{E: r, Cols: []string{"v", "k"}},
			algebra.Join{L: g, R: algebra.ConstRel{Cols: []string{"v", "w"}, Rows: [][]string{{"mid", "y"}, {"top", "z"}}}},
		} {
			if _, _, _, err := wsdalg.Eval(w, outA(e), wsdalg.Options{Cost: obs.NewCost()}); err != nil {
				t.Fatal(err)
			}
		}
		if got := printAnswers(t, a); got != want {
			t.Fatalf("after %d rounds of later evaluations the kept answers print\n%s\nwant\n%s", i+1, got, want)
		}
	}
	again, _, _, err := wsdalg.Eval(w, kept, wsdalg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := printAnswers(t, again); got != want {
		t.Fatalf("re-evaluating the kept query prints\n%s\nwant\n%s", got, want)
	}
}
