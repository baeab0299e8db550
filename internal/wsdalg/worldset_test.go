package wsdalg

// World-set operator tests: possible/certain/choiceof/diff evaluated
// natively on decompositions, checked world-for-world against the
// explicit-worlds oracle query.EvalOnWorldSet.

import (
	"errors"
	"fmt"
	"testing"

	"pw/internal/algebra"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// oracleWSAnswers evaluates q under the world-set-algebra semantics on
// the explicit world list of w, returning the distinct answer worlds.
func oracleWSAnswers(t *testing.T, w *wsd.WSD, q query.Query) []*rel.Instance {
	t.Helper()
	var worlds []*rel.Instance
	w.Each(func(i *rel.Instance) bool {
		worlds = append(worlds, i)
		return false
	})
	raw, err := query.EvalOnWorldSet(q, worlds)
	if err != nil {
		t.Fatalf("oracle EvalOnWorldSet: %v", err)
	}
	var out []*rel.Instance
	buckets := map[uint64][]*rel.Instance{}
	for _, a := range raw {
		h := a.Fingerprint()
		dup := false
		for _, prev := range buckets[h] {
			if prev.Equal(a) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buckets[h] = append(buckets[h], a)
		out = append(out, a)
	}
	return out
}

// checkEvalWS asserts rep(Eval(w, q)) equals the world-set-algebra
// oracle's answer set world-for-world.
func checkEvalWS(t *testing.T, w *wsd.WSD, q query.Query) *wsd.WSD {
	t.Helper()
	got, err := apply(w, q)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want := oracleWSAnswers(t, w, q)
	if c := got.Count(); !c.IsInt64() || c.Int64() != int64(len(want)) {
		t.Fatalf("Count = %s, oracle has %d distinct answers", c, len(want))
	}
	for wi, a := range want {
		if !got.Member(a) {
			t.Fatalf("oracle answer %d not in rep(Eval):\n%s\nresult:\n%s", wi, a, got)
		}
	}
	return got
}

func scanR() algebra.Expr { return algebra.Scan("R", "s", "v") }

func selHi(e algebra.Expr) algebra.Expr {
	return algebra.Where(e, algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))
}

func TestEvalPossibleOperator(t *testing.T) {
	w := sensorsWSD(t)
	q := query.NewAlgebra("poss", query.Out{Name: "A", Expr: algebra.Possible{E: selHi(scanR())}})
	got := checkEvalWS(t, w, q)
	// possible collapses the whole world set into one certain world.
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	for _, fact := range []rel.Fact{{"s0", "hi"}, {"s1", "hi"}} {
		if !got.CertainFact("A", fact) {
			t.Errorf("A%v must be certain in possible()", fact)
		}
	}
	if got.PossibleFact("A", rel.Fact{"hub", "ok"}) {
		t.Error("A(hub ok) fails the selection and must not appear")
	}
}

func TestEvalCertainOperator(t *testing.T) {
	w := sensorsWSD(t)
	q := query.NewAlgebra("cert", query.Out{Name: "A", Expr: algebra.Certain{E: scanR()}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	if !got.CertainFact("A", rel.Fact{"hub", "ok"}) {
		t.Error("A(hub ok) holds in every world and must survive certain()")
	}
	if got.PossibleFact("A", rel.Fact{"s0", "lo"}) {
		t.Error("A(s0 lo) is uncertain and must not survive certain()")
	}
}

func TestEvalNestedCertainPossible(t *testing.T) {
	w := sensorsWSD(t)
	q := query.NewAlgebra("nested", query.Out{Name: "A",
		Expr: algebra.Certain{E: algebra.Possible{E: selHi(scanR())}}})
	got := checkEvalWS(t, w, q)
	// possible() is already certain, so certain(possible(e)) = possible(e).
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	if !got.CertainFact("A", rel.Fact{"s0", "hi"}) {
		t.Error("A(s0 hi) must be certain")
	}
}

func TestEvalChoiceOfOperator(t *testing.T) {
	w := sensorsWSD(t)
	q := query.NewAlgebra("pick", query.Out{Name: "A", Expr: algebra.ChoiceOf{E: scanR()}})
	got := checkEvalWS(t, w, q)
	// Every base fact is pickable somewhere; each answer world is a
	// singleton.
	for _, fact := range []rel.Fact{{"hub", "ok"}, {"s0", "lo"}, {"s1", "hi"}} {
		if !got.PossibleFact("A", fact) {
			t.Errorf("A%v must be a possible pick", fact)
		}
	}
	if got.CertainFact("A", rel.Fact{"s0", "lo"}) {
		t.Error("no single pick is certain")
	}
}

func TestEvalChoiceOfEmptyWorlds(t *testing.T) {
	// R is empty in one world: choiceof must keep that world empty, not
	// invent a pick.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "a", "x")), alt()},
	)
	q := query.NewAlgebra("pick", query.Out{Name: "A", Expr: algebra.ChoiceOf{E: scanR()}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 2 {
		t.Fatalf("Count = %d, want 2 ({a x} and ∅)", c)
	}
}

func TestEvalChoiceOfOccurrencesIndependent(t *testing.T) {
	// Two syntactic occurrences of choiceof pick independently: the
	// union of two independent picks over {x, y} yields {x}, {y} and
	// {x, y}.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x"), f("R", "y"))},
	)
	pick := func() algebra.Expr { return algebra.ChoiceOf{E: algebra.Scan("R", "c")} }
	q := query.NewAlgebra("two", query.Out{Name: "A", Expr: algebra.Union{L: pick(), R: pick()}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 3 {
		t.Fatalf("Count = %d, want 3", c)
	}
}

func TestEvalDiffOperator(t *testing.T) {
	// R ∖ S per world: S uncertainly masks one of R's facts.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 1}, {Name: "S", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x"), f("R", "y"))},
		[]wsd.Alt{alt(f("S", "x")), alt(f("S", "z"))},
	)
	q := query.NewAlgebra("diff", query.Out{Name: "A",
		Expr: algebra.Diff{L: algebra.Scan("R", "c"), R: algebra.Scan("S", "c")}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 2 {
		t.Fatalf("Count = %d, want 2 ({y} and {x y})", c)
	}
	if !got.CertainFact("A", rel.Fact{"y"}) {
		t.Error("A(y) is never masked and must be certain")
	}
	if got.CertainFact("A", rel.Fact{"x"}) {
		t.Error("A(x) is masked in one world and must not be certain")
	}
}

func TestEvalDiffOverTemplate(t *testing.T) {
	// Left operand is an attribute-level template (2×2 worlds): diff
	// tabulates it over the merged space — "decidable on the
	// decomposition" — and still matches the oracle.
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 2}})
	if err := w.AddTemplateComponent("R",
		[]string{"a"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTemplateComponent("R",
		[]string{"b"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddComponent(alt(f("S", "a", "x"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	q := query.NewAlgebra("diff", query.Out{Name: "A",
		Expr: algebra.Diff{L: algebra.Scan("R", "k", "v"), R: algebra.Scan("S", "k", "v")}})
	checkEvalWS(t, w, q)
}

func TestEvalWorldSetOverJoin(t *testing.T) {
	// The operators compose with the positive fragment: which sensor
	// readings are certainly present after a join against a certain
	// dimension table.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 2}, {Name: "D", Arity: 1}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo")), alt(f("R", "s0", "hi"))},
		[]wsd.Alt{alt(f("D", "s0"))},
	)
	q := query.NewAlgebra("jc", query.Out{Name: "A",
		Expr: algebra.Certain{E: algebra.Join{L: scanR(), R: algebra.Scan("D", "s")}}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
}

func TestEvalPossibleOfChoiceOf(t *testing.T) {
	// possible(choiceof(e)) = possible(e): the collapse must also fold
	// the synthetic choice axis, not just base components.
	w := sensorsWSD(t)
	q := query.NewAlgebra("pc", query.Out{Name: "A",
		Expr: algebra.Possible{E: algebra.ChoiceOf{E: scanR()}}})
	got := checkEvalWS(t, w, q)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	for _, fact := range []rel.Fact{{"hub", "ok"}, {"s0", "lo"}, {"s0", "hi"}} {
		if !got.CertainFact("A", fact) {
			t.Errorf("A%v must be certain in possible(choiceof())", fact)
		}
	}
}

func TestEvalCertainOfChoiceOf(t *testing.T) {
	// certain(choiceof(R)) over a single-fact certain R is that fact;
	// with real choice it is empty.
	one := mustWSD(t, table.Schema{{Name: "R", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x"))},
	)
	q := query.NewAlgebra("cc", query.Out{Name: "A",
		Expr: algebra.Certain{E: algebra.ChoiceOf{E: algebra.Scan("R", "c")}}})
	got := checkEvalWS(t, one, q)
	if !got.CertainFact("A", rel.Fact{"x"}) {
		t.Error("the only pickable fact must be certain")
	}
	two := mustWSD(t, table.Schema{{Name: "R", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x"), f("R", "y"))},
	)
	got = checkEvalWS(t, two, q)
	if got.PossibleFact("A", rel.Fact{"x"}) {
		t.Error("no fact is picked in every choice world")
	}
}

func TestEvalDiffEntangledGuard(t *testing.T) {
	// A diff against many independent uncertain components needs their
	// joint space; past MaxMergeAlts it must refuse with ErrEntangled,
	// never approximate.
	schema := table.Schema{{Name: "R", Arity: 1}, {Name: "S", Arity: 1}}
	w := wsd.New(schema)
	if err := w.AddComponent(alt(f("R", "x"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		if err := w.AddComponent(alt(f("S", a)), alt(f("S", b))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	q := query.NewAlgebra("big", query.Out{Name: "A",
		Expr: algebra.Diff{L: algebra.Scan("R", "c"), R: algebra.Scan("S", "c")}})
	if _, err := apply(w, q); !errors.Is(err, ErrEntangled) {
		t.Fatalf("want ErrEntangled, got %v", err)
	}
}
