package wsdalg

import (
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
)

// plannedLabels is σ[lab=high] over a dimension-table join, written with
// the selection on top: the planner pushes it below the join onto the
// two-row constant side, so the chosen form tabulates less than the
// written one (the WSAlgebra_Planned_1M probe's query).
func plannedLabels() query.Query {
	return query.NewAlgebra("high-labels", query.Out{Name: "A",
		Expr: algebra.Project{
			E: algebra.Where(
				algebra.Join{
					L: algebra.Scan("S", "s", "v"),
					R: algebra.ConstRel{Cols: []string{"v", "lab"}, Rows: [][]string{{"lo", "low"}, {"hi", "high"}}},
				},
				algebra.EqP(algebra.Col("lab"), algebra.Lit("high"))),
			Cols: []string{"s", "lab"},
		}})
}

// TestOptionsDecision pins what each Options setting does, for both
// output shapes: a nil decision prices q and records the planning; a
// written decision evaluates q unpriced, its join tabulating more rows
// than the chosen form's; a kept decision is evaluated as is, never re-priced; and
// a nil cost sink returns no plan.
func TestOptionsDecision(t *testing.T) {
	w := gen.MillionWorldWSD()
	q := plannedLabels()
	alts := func(pl *Plan) int64 { return pl.Cost[obs.EvalAltsTabulated.String()] }
	// joinRows is the rows the join tabulated: pushing the selection
	// below it halves them. (Both forms sweep the same joint spaces, so
	// eval_alts_tabulated alone does not tell them apart.)
	joinRows := func(pl *Plan) int64 {
		var n int64
		var walk func(*PlanNode)
		walk = func(p *PlanNode) {
			if p.Op == "join" {
				n += p.Act.Rows
			}
			for _, c := range p.Children {
				walk(c)
			}
		}
		for _, o := range pl.Outs {
			walk(o)
		}
		return n
	}
	_, chosen, kept, err := Eval(w, q, Options{Cost: obs.NewCost()})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		run  func(Options) (*Plan, *Decision, error)
	}{
		{"Eval", func(o Options) (*Plan, *Decision, error) {
			_, pl, d, err := Eval(w, q, o)
			return pl, d, err
		}},
		{"Apply", func(o Options) (*Plan, *Decision, error) {
			_, pl, d, err := Apply(w, q, o)
			return pl, d, err
		}},
	} {
		for _, c := range []struct {
			name  string
			o     Options
			check func(t *testing.T, pl *Plan, d *Decision)
		}{
			{"nil decision", Options{Cost: obs.NewCost()}, func(t *testing.T, pl *Plan, d *Decision) {
				if pi := pl.Planner; pi == nil || !pi.Changed() || pi.ChosenCost >= pi.NaiveCost {
					t.Fatalf("planning record %+v, want the pushed form priced below the written one", pl.Planner)
				}
				if d == kept {
					t.Fatal("a nil decision returned the kept one")
				}
			}},
			{"written", Options{Decision: Written(q), Cost: obs.NewCost()}, func(t *testing.T, pl *Plan, d *Decision) {
				if pl.Planner != nil {
					t.Fatalf("written form carries a planning record %+v", pl.Planner)
				}
				if a, b := alts(pl), alts(chosen); a < b {
					t.Fatalf("written form tabulated %d alternatives, chosen form %d: want no fewer", a, b)
				}
				if a, b := joinRows(pl), joinRows(chosen); a <= b {
					t.Fatalf("written form's join tabulated %d rows, chosen form's %d: want more", a, b)
				}
			}},
			{"kept decision", Options{Decision: kept, Cost: obs.NewCost()}, func(t *testing.T, pl *Plan, d *Decision) {
				// Pricing always records a fresh decision; the kept
				// record coming back unchanged means none ran.
				if d != kept || pl.Planner != chosen.Planner {
					t.Fatalf("kept decision re-priced: decision %p (kept %p), record %p (kept %p)", d, kept, pl.Planner, chosen.Planner)
				}
				if a, b := alts(pl), alts(chosen); a != b || joinRows(pl) != joinRows(chosen) {
					t.Fatalf("kept decision tabulated %d alternatives and %d join rows, chosen form %d and %d", a, joinRows(pl), b, joinRows(chosen))
				}
			}},
			{"nil cost", Options{}, func(t *testing.T, pl *Plan, d *Decision) {
				if pl != nil {
					t.Fatalf("unobserved run returned a plan: %+v", pl)
				}
			}},
		} {
			t.Run(shape.name+"/"+c.name, func(t *testing.T) {
				pl, d, err := shape.run(c.o)
				if err != nil {
					t.Fatal(err)
				}
				c.check(t, pl, d)
			})
		}
	}
}
