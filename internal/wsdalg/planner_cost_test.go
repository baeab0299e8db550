// Planner cost tests: a byte-for-byte golden of Optimize's decisions
// (naive and chosen forms with their predicted costs) over the planner
// property corpus and the pwq explain examples, and the soundness of the
// planner's prediction against what evaluation actually sweeps.
package wsdalg_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/planner_costs.golden")

// plannerCorpus visits the (decomposition, query) cases of
// TestPlannerNeverExceedsNaive in seed order — every case Optimize
// plans, up to the hundredth whose naive form evaluates — passing each
// to fn together with whether the naive form evaluated.
func plannerCorpus(t *testing.T, fn func(seed int64, w *wsd.WSD, q query.Algebra, evaluates bool)) {
	t.Helper()
	schema := table.Schema{{Name: "R", Arity: 2}}
	checked := 0
	for seed := int64(1); checked < 100 && seed < 8000; seed++ {
		w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, 4)
		if err != nil || !w.Count().IsInt64() || w.Count().Int64() > 200 {
			continue
		}
		q := gen.RandomWSAQuery(seed, schema, 4, 2+int(seed)%2)
		_, err = apply(w, q)
		fn(seed, w, q, err == nil)
		if err == nil {
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d corpus cases within the seed budget", checked)
	}
}

// loadExample reads one examples/data file: the decomposition of a db
// file or the query of a @query file.
func loadExample(t *testing.T, name string) *parse.Source {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "data", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := parse.ParseSource(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return src
}

func writeDecision(b *bytes.Buffer, tag string, info *wsdalg.PlannerInfo) {
	if info == nil {
		fmt.Fprintf(b, "%s: no planning record\n", tag)
		return
	}
	fmt.Fprintf(b, "%s\n  naive  cost=%d  %s\n  chosen cost=%d  %s\n",
		tag, info.NaiveCost, info.Naive, info.ChosenCost, info.Chosen)
}

// TestPlannerCostsGolden pins every planning decision — the naive and
// chosen forms and both predicted costs — over the planner property
// corpus and the three pwq explain examples. A change to the cost model
// or to the rewrites that moves any plan choice or any price shows up
// here as a diff.
func TestPlannerCostsGolden(t *testing.T) {
	var b bytes.Buffer
	plannerCorpus(t, func(seed int64, w *wsd.WSD, q query.Algebra, _ bool) {
		_, info := wsdalg.Optimize(w, q)
		writeDecision(&b, fmt.Sprintf("seed %d", seed), info)
	})
	for _, ex := range []struct{ db, query string }{
		{"sensors.pw", "sensors_hi.pw"},
		{"grid.pw", "grid_hi.pw"},
		{"sensors.pw", "sensors_whatif.pw"},
	} {
		w := loadExample(t, ex.db).WSD
		q := loadExample(t, ex.query).Query
		if w == nil || q == nil {
			t.Fatalf("%s / %s: want a decomposition and a query", ex.db, ex.query)
		}
		_, info := wsdalg.Optimize(w, *q)
		writeDecision(&b, ex.db+" "+ex.query, info)
	}
	golden := filepath.Join("testdata", "planner_costs.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("planner decisions differ from %s (rerun with -update only for an intended cost-model change):\n%s",
			golden, b.String())
	}
}

// TestPlannerCostBoundsSweep checks that the planner's prediction is an
// upper bound on the work evaluation performs: for every corpus query
// that evaluates without refusal, the chosen form's predicted cost is at
// least the joint alternatives the observed Apply actually swept, summed over
// every plan node, assembly included.
func TestPlannerCostBoundsSweep(t *testing.T) {
	cases := 0
	plannerCorpus(t, func(seed int64, w *wsd.WSD, q query.Algebra, evaluates bool) {
		if !evaluates {
			return
		}
		_, plan, _, err := wsdalg.Apply(w, q, wsdalg.Options{Cost: obs.NewCost()})
		if err != nil {
			t.Errorf("seed %d: Apply refused a query the naive form evaluates: %v", seed, err)
			return
		}
		if plan.Planner == nil {
			t.Errorf("seed %d: Apply's plan carries no planning record", seed)
			return
		}
		var swept int64
		walkPlan(plan, func(n *wsdalg.PlanNode) { swept += n.Act.MergeSpace })
		if plan.Planner.ChosenCost < swept {
			t.Errorf("seed %d: predicted cost %d < %d joint alternatives swept\nchosen: %s",
				seed, plan.Planner.ChosenCost, swept, plan.Planner.Chosen)
		}
		cases++
	})
	t.Logf("%d evaluated cases checked", cases)
}
