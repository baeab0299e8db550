package wsdalg

// Tests that per-query evaluator work follows what the query touches:
// the planner's rewrites keep a written probe (no pricing walk reads a
// probed relation in full), and choiceof's synthetic units stay in the
// evaluator's overlay, never in the version's shared axis table.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/wsd"
)

// groupedProbeQueries are query shapes over gen.GroupedWSD's R(k g v)
// whose written form probes the g posting: σ on a scan, π∘σ on a scan,
// and three planner-golden shapes rewritten over R(k g v) — seed 15
// (σ beside an empty constant under ∪), seed 17 (σ over ∪ over σ, the
// pushdown merging the two) and seed 53 (σ over a π on a scan, under a
// π).
func groupedProbeQueries() map[string]algebra.Expr {
	scan := algebra.Scan("R", "k", "g", "v")
	g := gen.GroupName(7)
	eqG := algebra.EqP(algebra.Col("g"), algebra.Lit(g))
	values := func(rows ...[]string) algebra.ConstRel {
		return algebra.ConstRel{Cols: []string{"k", "g", "v"}, Rows: rows}
	}
	two := func() algebra.ConstRel { return values([]string{"x", "y", "z"}, []string{"u", g, "lo"}) }
	return map[string]algebra.Expr{
		"select":  algebra.Where(scan, eqG),
		"project": algebra.Project{E: algebra.Where(scan, eqG), Cols: []string{"k"}},
		"seed15":  algebra.Union{L: algebra.Where(scan, eqG), R: values()},
		"seed17": algebra.Union{L: algebra.Union{L: two(),
			R: algebra.Where(algebra.Union{L: algebra.Where(scan, eqG), R: two()},
				algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))}, R: two()},
		"seed53": algebra.Project{E: algebra.Where(algebra.Project{E: scan, Cols: []string{"g"}},
			algebra.NeqP(algebra.Col("g"), algebra.Lit(gen.GroupName(1))), eqG), Cols: []string{"g"}},
	}
}

// TestOptimizeKeepsScanProbes pins that planning never turns a posting
// read into a full scan: after decide, the evaluator's scan cache —
// every scan the naive and the rewritten form's pricing walks ran —
// holds no full-relation key for a query whose written form probes. On
// 10 000 components a full read would cost the planner the whole
// decomposition; the probe reads the group's ten.
func TestOptimizeKeepsScanProbes(t *testing.T) {
	w := gen.GroupedWSD(10000, 1000)
	id, ok := sym.LookupConst(gen.GroupName(7))
	if !ok {
		t.Fatal("group constant not interned")
	}
	posting, _ := w.Posting(0, 1, id)
	for name, e := range groupedProbeQueries() {
		q := query.NewAlgebra(name, query.Out{Name: "A", Expr: e})
		ev := newEvaluator(w)
		opt := ev.decide(q).form
		for key, parts := range ev.scans {
			if key.col < 0 {
				t.Errorf("%s: planning read R in full (%d parts); chosen %s", name, len(parts), opt.(query.Algebra).Outs[0].Expr)
			}
		}
		if len(ev.scans) == 0 {
			t.Errorf("%s: planning ran no scan", name)
		}
	}

	// EXPLAIN of π[k](σ[#g = c](R(k g v))): the planner prunes the scan
	// to π[k,g](R) under the σ, and the scan still reads the posting.
	q := query.NewAlgebra("project", query.Out{Name: "A", Expr: groupedProbeQueries()["project"]})
	_, pl, _, err := Apply(w, q, Options{Cost: obs.NewCost()})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	pl.WriteText(&b)
	want := fmt.Sprintf("scan R probe[#g = %s]", gen.GroupName(7))
	var scans []*PlanNode
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n.Op == "scan" {
			scans = append(scans, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, o := range pl.Outs {
		walk(o)
	}
	if len(scans) != 1 || "scan "+scans[0].Detail != want || scans[0].Act.Comps != int64(len(posting)) {
		t.Fatalf("want one %q node with comps=%d:\n%s", want, len(posting), b.String())
	}
	if !strings.Contains(b.String(), want) {
		t.Fatalf("EXPLAIN text lacks %q:\n%s", want, b.String())
	}
}

// TestChoiceOfSharedTableRace evaluates choiceof queries from 8
// goroutines on one shared normalized decomposition — mixed tuple-level
// components and templates — and checks every answer against the worlds
// oracle: the synthetic units each evaluation appends must land in its
// own overlay, never in the version's shared axis table (the race
// detector flags a write, the oracle a corrupted read).
func TestChoiceOfSharedTableRace(t *testing.T) {
	scan := algebra.Scan("R", "a", "b")
	pick := func(e algebra.Expr) algebra.Expr { return algebra.ChoiceOf{E: e} }
	exprs := []algebra.Expr{
		pick(scan),
		algebra.Union{L: pick(scan), R: pick(scan)},
		algebra.Possible{E: pick(algebra.Project{E: scan, Cols: []string{"b"}})},
		algebra.Join{L: pick(scan), R: algebra.Rename{E: pick(scan), From: []string{"b"}, To: []string{"c"}}},
	}
	cases := 0
	for seed := int64(0); seed < 40 && cases < 6; seed++ {
		w, err := gen.RandomWSD(seed, 4, 3, 2, 4)
		if err != nil || !w.Count().IsInt64() || w.Count().Int64() > 64 {
			continue
		}
		templates := 0
		for ci := 0; ci < w.Components(); ci++ {
			if w.IsTemplate(ci) {
				templates++
			}
		}
		if templates == 0 {
			continue
		}
		cases++
		base := slices.Clone(w.Axes().Counts())
		var qs []query.Query
		var want [][]*rel.Instance
		for i, e := range exprs {
			q := query.NewAlgebra(fmt.Sprintf("pick%d", i), query.Out{Name: "A", Expr: e})
			qs = append(qs, q)
			want = append(want, oracleWSAnswers(t, w, q))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range qs {
					i := (g + k) % len(qs)
					got, err := apply(w, qs[i])
					if err != nil {
						t.Errorf("seed %d goroutine %d %s: %v", seed, g, qs[i].Label(), err)
						continue
					}
					checkAnswers(t, fmt.Sprintf("seed %d goroutine %d %s", seed, g, qs[i].Label()), got, want[i])
				}
			}(g)
		}
		wg.Wait()
		if got := w.Axes().Counts(); !slices.Equal(got, base) {
			t.Errorf("seed %d: shared axis table changed: %v, was %v", seed, got, base)
		}
	}
	if cases < 3 {
		t.Fatalf("only %d generated cases with templates", cases)
	}
}

// checkAnswers reports (without stopping the goroutine) where rep(got)
// differs from the oracle's distinct answers.
func checkAnswers(t *testing.T, tag string, got *wsd.WSD, want []*rel.Instance) {
	if c := got.Count(); !c.IsInt64() || c.Int64() != int64(len(want)) {
		t.Errorf("%s: Count = %s, oracle has %d distinct answers", tag, c, len(want))
		return
	}
	for wi, a := range want {
		if !got.Member(a) {
			t.Errorf("%s: oracle answer %d not in rep(Eval):\n%s", tag, wi, a)
			return
		}
	}
}
