// Per-query choice units: an evaluation numbers only the (component,
// slot) axes its scans touch, two scans of one component share its
// units, and choiceof's synthetic unit may sit between input units. The
// unit vectors grow with what the query touches, never with the input.
package wsdalg

import (
	"slices"
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// multiRelWSD has one component mentioning both relations, one over S
// alone, and a template over R.
func multiRelWSD(t *testing.T) *wsd.WSD {
	t.Helper()
	w := wsd.New(table.Schema{{Name: "R", Arity: 1}, {Name: "S", Arity: 1}})
	if err := w.AddComponent(
		wsd.Alt{{Rel: "R", Args: rel.Fact{"a"}}, {Rel: "S", Args: rel.Fact{"a"}}},
		wsd.Alt{{Rel: "R", Args: rel.Fact{"b"}}},
		wsd.Alt{{Rel: "S", Args: rel.Fact{"c"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.AddComponent(wsd.Alt{{Rel: "S", Args: rel.Fact{"d"}}}, wsd.Alt{{Rel: "S", Args: rel.Fact{"e"}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTemplateComponent("R", []string{"f", "g"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestUnitsSharedAcrossScans joins R with S, whose scans both read the
// multi-relation component: its part in either scan must depend on one
// shared unit, the evaluation must number exactly the touched axes, and
// the answers must match the worlds oracle.
func TestUnitsSharedAcrossScans(t *testing.T) {
	w := multiRelWSD(t)
	q := query.NewAlgebra("rs", query.Out{Name: "A", Expr: algebra.Join{
		L: algebra.Scan("R", "x"), R: algebra.Scan("S", "x")}})
	ev := newEvaluator(w)
	r, err := ev.walk(q, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "R ⋈ S", r.out, oracleWSAnswers(t, w, q))
	units := map[int]bool{}
	shared := -1
	for _, sc := range ev.scans {
		for _, p := range sc.parts {
			for _, u := range p.origins {
				units[u] = true
			}
		}
	}
	for key, sc := range ev.scans {
		for k, ci := range sc.comps {
			if w.AltCount(int(ci)) != 3 {
				continue // not the multi-relation component
			}
			u := sc.parts[k].origins[0]
			if shared >= 0 && u != shared {
				t.Fatalf("scan %v reads the multi-relation component as unit %d, another scan as %d", key, u, shared)
			}
			shared = u
		}
	}
	if len(ev.scans) != 2 || shared < 0 {
		t.Fatalf("%d scans, shared unit %d", len(ev.scans), shared)
	}
	// Touched axes: the shared component, S's own component and the
	// template's open slot.
	if len(units) != 3 || ev.units() != 3 {
		t.Fatalf("evaluation touched units %v and numbered %d; want the 3 axes its scans read", units, ev.units())
	}
}

// TestChoiceOfUnitAfterInputUnits picks from R before S is scanned, so
// the synthetic unit is numbered between R's input units and S's: the
// answers must still match the worlds oracle, through both the planner
// (bound walk, then the tabulating walk on one evaluator) and as
// written.
func TestChoiceOfUnitAfterInputUnits(t *testing.T) {
	w := multiRelWSD(t)
	q := query.NewAlgebra("pick", query.Out{Name: "A", Expr: algebra.Union{
		L: algebra.ChoiceOf{E: algebra.Scan("R", "x")},
		R: algebra.Scan("S", "x"),
	}})
	want := oracleWSAnswers(t, w, q)
	ev := newEvaluator(w)
	r, err := ev.walk(q, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "as written", r.out, want)
	scanned := map[int]bool{}
	var rUnits, sUnits []int
	for key, sc := range ev.scans {
		for _, p := range sc.parts {
			for _, u := range p.origins {
				scanned[u] = true
				if key.rel == 0 {
					rUnits = append(rUnits, u)
				} else {
					sUnits = append(sUnits, u)
				}
			}
		}
	}
	synthetic := -1
	for u := 0; u < ev.units(); u++ {
		if !scanned[u] {
			synthetic = u
		}
	}
	if synthetic < 0 || slices.Max(rUnits) > synthetic || slices.Max(sUnits) < synthetic {
		t.Fatalf("R units %v, S units %v, synthetic unit %d: want the pick between them", rUnits, sUnits, synthetic)
	}
	planned, _, _, err := Apply(w, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "planned", planned, want)
}

// TestUnitsFollowTheQuery evaluates one probed σ on a small and on a
// ten-times larger grouped decomposition: the probe reads one group's
// components either way, so the evaluation numbers the same units.
func TestUnitsFollowTheQuery(t *testing.T) {
	q := query.NewAlgebra("group", query.Out{Name: "A", Expr: algebra.Where(algebra.Scan("R", "k", "g", "v"),
		algebra.EqP(algebra.Col("g"), algebra.Lit(gen.GroupName(7))))})
	var units []int
	for _, n := range []int{1000, 10000} {
		ev := newEvaluator(gen.GroupedWSD(n, n/10))
		if _, err := ev.walk(q, false, nil, nil); err != nil {
			t.Fatal(err)
		}
		units = append(units, ev.units())
	}
	if units[0] != 10 || units[1] != 10 {
		t.Fatalf("units numbered at 1k and 10k components: %v, want the group's 10 both times", units)
	}
}
