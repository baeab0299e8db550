// Scan-probe tests: σ(col = const) over a scan reads only the
// components posted under the constant. The differential suite pins
// that the probed shapes answer world-for-world like the worlds oracle;
// the work-unit test pins that a probed scan reads exactly the posting,
// independent of the decomposition's size.
package wsdalg_test

import (
	"fmt"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/difftest"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/sym"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// probeShapes are the σ-probe query shapes, each a function of two pool
// constants and, for the attribute-level shape, a template cell value:
//
//	absent  a constant no fact or template mentions;
//	neq     a ≠ conjunct beside the probe;
//	twice   two different probes of one relation in one query (the scan
//	        cache must key on the probe);
//	attr    a probe on a constant of a template cell;
//	rename  σ over ρ: no probe, the scan reads in full.
//
// probeShapeQuery also builds "project", σ over a π on the scan that
// keeps the probed column (TestDifferentialProjectProbe).
var probeShapes = []string{"absent", "neq", "twice", "attr", "rename"}

func probeShapeQuery(shape string, c1, c2, cell string) query.Algebra {
	scan := algebra.Scan("R", "a", "b")
	eq := func(col, c string) algebra.Pred { return algebra.EqP(algebra.Col(col), algebra.Lit(c)) }
	var e algebra.Expr
	switch shape {
	case "absent":
		e = algebra.Where(scan, eq("a", "absent-const"))
	case "neq":
		e = algebra.Where(scan, eq("a", c1), algebra.NeqP(algebra.Col("b"), algebra.Lit(c2)))
	case "twice":
		e = algebra.Union{L: algebra.Where(scan, eq("a", c1)), R: algebra.Where(scan, eq("a", c2))}
	case "attr":
		e = algebra.Where(scan, eq("b", cell))
	case "rename":
		e = algebra.Where(algebra.Rename{E: scan, From: []string{"a"}, To: []string{"c"}}, eq("c", c1))
	case "project":
		e = algebra.Where(algebra.Project{E: scan, Cols: []string{"a"}}, eq("a", c1))
	}
	return query.NewAlgebra(shape, query.Out{Name: "A", Expr: e})
}

// templateCell returns a value of column 1 of w's first template that
// has an open cell there ("" when there is none).
func templateCell(w *wsd.WSD) string {
	for ci := 0; ci < w.Components(); ci++ {
		if _, cells, ok := w.TemplateSlots(ci); ok && len(cells[1]) > 1 {
			return cells[1][0].Name()
		}
	}
	return ""
}

// probedScans counts the scan nodes of q's plan on w that read through
// a probe.
func probedScans(t *testing.T, w *wsd.WSD, q query.Query) int {
	t.Helper()
	_, plan, err := wsdalg.EvalPlanned(w, q, nil)
	if err != nil {
		t.Fatalf("%s: %v", q.Label(), err)
	}
	n := 0
	walkPlan(plan, func(p *wsdalg.PlanNode) {
		if p.Op == "scan" && strings.Contains(p.Detail, "probe[") {
			n++
		}
	})
	return n
}

// TestDifferentialScanProbes runs every σ-probe shape over seeded mixed
// decompositions through the shared harness: the native evaluator, the
// planner in the loop and the query server must all agree with the
// per-world oracle. Each shape must also really probe (or, for σ over
// ρ, really not).
func TestDifferentialScanProbes(t *testing.T) {
	runProbeShapes(t, "wsdalg-probe", 150, probeShapes)
}

// TestDifferentialProjectProbe runs σ over a π on the scan — the shape
// the planner's column pruning writes — the same way: the π hands the
// probe through, so the scan reads the posting.
func TestDifferentialProjectProbe(t *testing.T) {
	runProbeShapes(t, "wsdalg-project-probe", 60, []string{"project"})
}

// runProbeShapes cross-validates cases of the given shapes, seed by
// seed in rotation, and requires at least ten cases of each shape.
func runProbeShapes(t *testing.T, tag string, cases int, shapes []string) {
	probed := map[string]int{}
	difftest.Run(t, difftest.Config{
		Tag:   tag,
		Cases: cases,
		Gen: func(seed int64) (*difftest.Case, bool) {
			consts := 4 + int(seed)%3
			w, err := gen.RandomWSD(seed, 4+int(seed)%2, 3, 2, consts)
			if err != nil || !w.Count().IsInt64() || w.Count().Int64() > 400 {
				return nil, false
			}
			shape := shapes[int(seed)%len(shapes)]
			cell := templateCell(w)
			if shape == "attr" && cell == "" {
				return nil, false
			}
			c1, c2 := fmt.Sprintf("c%d", seed%int64(consts)), fmt.Sprintf("c%d", (seed/7)%int64(consts))
			if shape == "twice" && c1 == c2 {
				c2 = fmt.Sprintf("c%d", (seed+1)%int64(consts))
			}
			q := probeShapeQuery(shape, c1, c2, cell)
			want := 1
			switch shape {
			case "twice":
				want = 2
			case "rename":
				want = 0
			}
			if got := probedScans(t, w, q); got != want {
				t.Errorf("seed %d %s: %d probed scans, want %d", seed, shape, got, want)
			}
			probed[shape]++
			return &difftest.Case{
				Tag:    fmt.Sprintf("%s seed %d (%s)", tag, seed, q.Outs[0].Expr),
				Worlds: w.Expand(0),
				WSD:    w,
				Query:  q,
			}, true
		},
		Backends: []difftest.Backend{
			difftest.WSDBackend("wsdalg"),
			difftest.PlannedWSDBackend(),
			difftest.ServerBackend("server", 2),
		},
	})
	for _, s := range shapes {
		if probed[s] < 10 {
			t.Errorf("shape %s ran %d cases, want >= 10", s, probed[s])
		}
	}
}

// TestSelectScanReadsPosting pins the deterministic work unit of a
// probed scan: σ[#g = c](R) reads exactly the components posted under
// c — ten, on a 1 000- and on a 10 000-component decomposition — as
// eval_scan_comps and as the scan node's actual.
func TestSelectScanReadsPosting(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		w := gen.GroupedWSD(n, n/10)
		ri := 0 // R is the only relation
		g := gen.GroupName(7)
		id, ok := sym.LookupConst(g)
		if !ok {
			t.Fatalf("%d: group constant %s not interned", n, g)
		}
		comps, tmpls := w.Posting(ri, 1, id)
		if len(comps) != 10 || len(tmpls) != 0 {
			t.Fatalf("%d: posting of %s = %d components, %d templates; want 10, 0", n, g, len(comps), len(tmpls))
		}
		q := query.NewAlgebra("group", query.Out{Name: "A",
			Expr: algebra.Where(algebra.Scan("R", "k", "g", "v"), algebra.EqP(algebra.Col("g"), algebra.Lit(g)))})
		c := obs.NewCost()
		out, plan, err := wsdalg.EvalOptimized(w, q, c)
		if err != nil {
			t.Fatalf("%d: %v", n, err)
		}
		if got := out.Count(); !got.IsInt64() || got.Int64() != 1<<10 {
			t.Errorf("%d: answer Count = %s, want 2^10", n, got)
		}
		if got := c.Get(obs.EvalScanComps); got != int64(len(comps)) {
			t.Errorf("%d: eval_scan_comps = %d, want the posting's %d", n, got, len(comps))
		}
		var act int64
		walkPlan(plan, func(p *wsdalg.PlanNode) {
			if p.Op == "scan" {
				act += p.Act.Comps
			}
		})
		if act != int64(len(comps)) {
			t.Errorf("%d: scan node act comps = %d, want %d", n, act, len(comps))
		}
	}
}
