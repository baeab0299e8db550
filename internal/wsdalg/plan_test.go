// Plan introspection tests: the estimate-soundness gate (every join and
// assembly node's predicted merge space upper-bounds what evaluation
// actually tabulated, across the seeded difftest corpus), the
// reconciliation of plan-tree actuals with the run's obs.Cost counters,
// and the JSON round-trip of the Plan shape.
package wsdalg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsdalg"
)

// walkPlan visits every node of the plan tree (out wrappers, operator
// nodes, the assemble node).
func walkPlan(p *wsdalg.Plan, fn func(n *wsdalg.PlanNode)) {
	var walk func(n *wsdalg.PlanNode)
	walk = func(n *wsdalg.PlanNode) {
		fn(n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, o := range p.Outs {
		walk(o)
	}
	if p.Assemble != nil {
		walk(p.Assemble)
	}
}

// TestPlanEstimateSoundness is the gate the ROADMAP's planner item
// depends on: across ≥150 seeded decomposition×query cases (the same
// generator family as TestDifferentialWSDAlg), every plan node's
// estimates upper-bound its actuals — in particular each ⋈ node's
// predicted merge space vs the joint alternatives actually swept — and
// the plan-tree actual totals reconcile exactly with the run's cost
// counters. Error cases (ErrEntangled refusals) stay in scope: their
// partial plans must be error-marked and still sound.
func TestPlanEstimateSoundness(t *testing.T) {
	schema := table.Schema{{Name: "R", Arity: 2}}
	const wantCases = 150
	cases, joins, errs := 0, 0, 0
	for seed := int64(0); cases < wantCases && seed < 10*wantCases; seed++ {
		consts := 4 + int(seed)%3
		w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, consts)
		if err != nil {
			continue
		}
		if !w.Count().IsInt64() || w.Count().Int64() > 400 {
			continue
		}
		q := gen.RandomPositiveQuery(seed, schema, consts, 2+int(seed)%2)
		cases++
		tag := fmt.Sprintf("seed %d (%s)", seed, q.Label())

		c := obs.NewCost()
		out, plan, _, evalErr := wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q), Cost: c})
		if plan == nil {
			t.Fatalf("%s: observed Apply returned a nil plan", tag)
		}
		if evalErr != nil {
			errs++
			if plan.Error == "" {
				t.Errorf("%s: eval failed (%v) but plan carries no error class", tag, evalErr)
			}
		} else {
			if plan.WorldCount != out.Count().String() {
				t.Errorf("%s: plan worlds %s != answer Count %s", tag, plan.WorldCount, out.Count())
			}
		}

		// Soundness: every node's estimate dominates its actual.
		var actSpaceTotal, actSpaceMax int64
		var outParts, scanComps int64
		walkPlan(plan, func(n *wsdalg.PlanNode) {
			scanComps += n.Act.Comps
			if n.Op == "join" || n.Op == "assemble" {
				if n.Op == "join" {
					joins++
				}
				if n.Est.MergeSpace < n.Act.MergeSpace {
					t.Errorf("%s: %s node est merge %d < act %d",
						tag, n.Op, n.Est.MergeSpace, n.Act.MergeSpace)
				}
				if n.Est.MaxSpace < n.Act.MaxSpace {
					t.Errorf("%s: %s node est max-space %d < act %d",
						tag, n.Op, n.Est.MaxSpace, n.Act.MaxSpace)
				}
			}
			actSpaceTotal += n.Act.MergeSpace
			if n.Act.MaxSpace > actSpaceMax {
				actSpaceMax = n.Act.MaxSpace
			}
			if n.Op == "out" {
				outParts += n.Act.Parts
				return // grouping node: no estimate side
			}
			if n.Op == "assemble" {
				return // parts estimated pre-fast-path; spaces checked above
			}
			if n.Error != "" {
				return // failed mid-operator: actuals are partial
			}
			if n.Est.Parts < n.Act.Parts {
				t.Errorf("%s: %s node est parts %d < act %d", tag, n.Op, n.Est.Parts, n.Act.Parts)
			}
			if n.Est.Units < n.Act.Units {
				t.Errorf("%s: %s node est units %d < act %d", tag, n.Op, n.Est.Units, n.Act.Units)
			}
			if n.Est.Rows < n.Act.Rows {
				t.Errorf("%s: %s node est rows %d < act %d", tag, n.Op, n.Est.Rows, n.Act.Rows)
			}
		})

		// Reconciliation: plan actuals decompose the cost totals, and
		// the private-run counters were folded into the caller's sink.
		if got := plan.Cost["eval_alts_tabulated"]; got != actSpaceTotal {
			t.Errorf("%s: Σ node act merge = %d, eval_alts_tabulated = %d", tag, actSpaceTotal, got)
		}
		if got := plan.Cost["eval_merge_space_max"]; got != actSpaceMax {
			t.Errorf("%s: max node act space = %d, eval_merge_space_max = %d", tag, actSpaceMax, got)
		}
		if evalErr == nil {
			if got := plan.Cost["eval_parts"]; got != outParts {
				t.Errorf("%s: Σ out act parts = %d, eval_parts = %d", tag, outParts, got)
			}
		}
		if got := plan.Cost["eval_scan_comps"]; got != scanComps {
			t.Errorf("%s: Σ node act comps = %d, eval_scan_comps = %d", tag, scanComps, got)
		}
		if got := plan.Cost["eval_components"]; got != plan.Components {
			t.Errorf("%s: plan components = %d, eval_components = %d", tag, plan.Components, got)
		}
		if got := c.Get(obs.EvalAltsTabulated); got != actSpaceTotal {
			t.Errorf("%s: caller sink eval_alts_tabulated = %d, want %d", tag, got, actSpaceTotal)
		}
	}
	if cases < wantCases {
		t.Fatalf("only %d corpus cases generated, want %d", cases, wantCases)
	}
	if joins == 0 {
		t.Fatal("corpus exercised no join nodes — the merge-space gate was vacuous")
	}
	t.Logf("%d cases (%d eval errors), %d join nodes checked", cases, errs, joins)
}

// TestPlanJSONRoundTrip pins that the Plan JSON shape survives a
// marshal/unmarshal cycle intact — the contract behind `pwq explain
// -json` and the server's ?explain=1 field.
func TestPlanJSONRoundTrip(t *testing.T) {
	w, err := gen.RandomWSD(7, 4, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.RandomPositiveQuery(7, table.Schema{{Name: "R", Arity: 2}}, 5, 3)
	_, plan, _, _ := wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q), Cost: obs.NewCost()})
	if plan == nil {
		t.Fatal("nil plan")
	}
	b, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var back wsdalg.Plan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, &back) {
		b2, _ := json.Marshal(&back)
		t.Fatalf("round trip changed the plan:\n%s\nvs\n%s", b, b2)
	}
}

// TestPlanWriteText sanity-checks the text renderer on the million-world
// builder: header with components and worlds, per-operator est/act
// blocks, the normalize line and the cost footer.
func TestPlanWriteText(t *testing.T) {
	w := gen.MillionWorldWSD()
	q := query.NewAlgebra("hi", query.Out{Name: "A",
		Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("S", "s", "v"), algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))),
			Cols: []string{"s"},
		}})
	_, plan, _, evalErr := wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q), Cost: obs.NewCost()})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	var buf bytes.Buffer
	plan.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{"plan ", "components=", "worlds=1048576", "out A", "select", "scan S", "est[", "act[", "normalize", "cost:"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, text)
		}
	}
}
