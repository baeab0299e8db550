package wsdalg

import (
	"errors"
	"testing"

	"pw/internal/algebra"
	"pw/internal/fo"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// mustWSD builds a decomposition from components of alternatives, each
// alternative a list of "Rel a b"-style facts.
func mustWSD(t *testing.T, schema table.Schema, comps ...[]wsd.Alt) *wsd.WSD {
	t.Helper()
	w := wsd.New(schema)
	for _, alts := range comps {
		if err := w.AddComponent(alts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

func alt(facts ...wsd.Fact) wsd.Alt { return wsd.Alt(facts) }

func f(relName string, args ...string) wsd.Fact {
	return wsd.Fact{Rel: relName, Args: rel.Fact(args)}
}

// oracleAnswers evaluates q on every world of w, returning the distinct
// answer instances.
func oracleAnswers(t *testing.T, w *wsd.WSD, q query.Query) []*rel.Instance {
	t.Helper()
	var out []*rel.Instance
	buckets := map[uint64][]*rel.Instance{}
	w.Each(func(i *rel.Instance) bool {
		a, err := q.Eval(i)
		if err != nil {
			t.Fatalf("oracle eval: %v", err)
		}
		h := a.Fingerprint()
		for _, prev := range buckets[h] {
			if prev.Equal(a) {
				return false
			}
		}
		buckets[h] = append(buckets[h], a)
		out = append(out, a)
		return false
	})
	return out
}

// checkEval asserts rep(Eval(w, q)) equals the oracle's answer set
// world-for-world.
func checkEval(t *testing.T, w *wsd.WSD, q query.Query) *wsd.WSD {
	t.Helper()
	got, err := apply(w, q)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want := oracleAnswers(t, w, q)
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

func sensorsWSD(t *testing.T) *wsd.WSD {
	return mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo")), alt(f("R", "s0", "hi"))},
		[]wsd.Alt{alt(f("R", "s1", "lo")), alt(f("R", "s1", "hi"))},
	)
}

func TestEvalSelection(t *testing.T) {
	w := sensorsWSD(t)
	q := query.NewAlgebra("hi", query.Out{Name: "A",
		Expr: algebra.Where(algebra.Scan("R", "s", "v"), algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))})
	got := checkEval(t, w, q)
	// 2 sensors × {in, out} = 4 distinct answers.
	if c := got.Count().Int64(); c != 4 {
		t.Fatalf("Count = %d, want 4", c)
	}
	if !got.PossibleFact("A", rel.Fact{"s0", "hi"}) {
		t.Error("A(s0 hi) must be possible")
	}
	if got.CertainFact("A", rel.Fact{"s0", "hi"}) {
		t.Error("A(s0 hi) must not be certain")
	}
	if got.PossibleFact("A", rel.Fact{"s0", "lo"}) {
		t.Error("A(s0 lo) must be impossible")
	}
}

func TestEvalProjectionCollapse(t *testing.T) {
	// Both alternatives project to the same answer: the answer world-set
	// is a single certain world and Count collapses 2 → 1.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "a", "x")), alt(f("R", "a", "y"))},
	)
	q := query.NewAlgebra("first", query.Out{Name: "A",
		Expr: algebra.Project{E: algebra.Scan("R", "c1", "c2"), Cols: []string{"c1"}}})
	got := checkEval(t, w, q)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	if !got.CertainFact("A", rel.Fact{"a"}) {
		t.Error("A(a) must be certain")
	}
}

func TestEvalJoinAcrossComponents(t *testing.T) {
	// Emp's department is uncertain; Dept's floor is uncertain and
	// independent. The join correlates the two components.
	w := mustWSD(t, table.Schema{{Name: "Emp", Arity: 2}, {Name: "Dept", Arity: 2}},
		[]wsd.Alt{alt(f("Emp", "carol", "sales")), alt(f("Emp", "carol", "eng"))},
		[]wsd.Alt{alt(f("Dept", "eng", "1")), alt(f("Dept", "eng", "2"))},
	)
	q := query.NewAlgebra("floor", query.Out{Name: "A",
		Expr: algebra.Project{
			E:    algebra.Join{L: algebra.Scan("Emp", "who", "dept"), R: algebra.Scan("Dept", "dept", "floor")},
			Cols: []string{"who", "floor"},
		}})
	got := checkEval(t, w, q)
	// Answers: {}, {A(carol 1)}, {A(carol 2)} — sales join is empty in
	// both Dept worlds, so two of the four input worlds collapse.
	if c := got.Count().Int64(); c != 3 {
		t.Fatalf("Count = %d, want 3", c)
	}
}

func TestEvalUnionMergesOverlappingSupport(t *testing.T) {
	// The same answer fact A(x) arises from two independent components;
	// its presence becomes a disjunction, which Normalize's verified
	// merge turns into one component with exact counting.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 1}, {Name: "S", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x")), alt()},
		[]wsd.Alt{alt(f("S", "x")), alt()},
	)
	q := query.NewAlgebra("u", query.Out{Name: "A",
		Expr: algebra.Union{L: algebra.Scan("R", "c"), R: algebra.Scan("S", "c")}})
	got := checkEval(t, w, q)
	// Answers: {A(x)} (three input worlds) and {} (one world).
	if c := got.Count().Int64(); c != 2 {
		t.Fatalf("Count = %d, want 2", c)
	}
}

func TestEvalSelfJoinSharedComponent(t *testing.T) {
	// Correlated scans of the same relation: the self-join must see the
	// SAME alternative choice on both sides, not the cross product.
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "a", "b")), alt(f("R", "b", "c"))},
	)
	q := query.NewAlgebra("path", query.Out{Name: "A",
		Expr: algebra.Project{
			E: algebra.Join{
				L: algebra.Scan("R", "x", "y"),
				R: algebra.Rename{E: algebra.Scan("R", "x", "y"), From: []string{"x", "y"}, To: []string{"y", "z"}},
			},
			Cols: []string{"x", "z"},
		}})
	checkEval(t, w, q)
}

func TestEvalIdentity(t *testing.T) {
	w := sensorsWSD(t)
	got, err := apply(w, query.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count().Cmp(w.Count()) != 0 {
		t.Fatalf("identity changed Count: %s vs %s", got.Count(), w.Count())
	}
	if got == w {
		t.Fatal("identity must clone, not alias")
	}
}

func TestEvalEmptyWorldSet(t *testing.T) {
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 1}},
		[]wsd.Alt{}, // zero alternatives: the empty world set
	)
	if !w.Empty() {
		t.Fatal("setup: want the empty world set")
	}
	q := query.NewAlgebra("q", query.Out{Name: "A", Expr: algebra.Scan("R", "c")})
	got, err := apply(w, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Fatal("the answer world-set of ∅ must be ∅")
	}
}

func TestEvalConstAndEmptyAnswer(t *testing.T) {
	// A selection nothing satisfies: every world maps to the single
	// empty answer.
	w := sensorsWSD(t)
	q := query.NewAlgebra("none", query.Out{Name: "A",
		Expr: algebra.Where(algebra.Scan("R", "s", "v"), algebra.EqP(algebra.Col("v"), algebra.Lit("nope")))})
	got := checkEval(t, w, q)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("Count = %d, want 1 (the empty answer)", c)
	}
}

func TestSupportedGate(t *testing.T) {
	// The whole extended algebra — ≠ selections included — evaluates
	// natively; only non-algebra queries are outside the fragment.
	neq := query.NewAlgebra("neq", query.Out{Name: "A",
		Expr: algebra.Where(algebra.Scan("R", "s", "v"), algebra.NeqP(algebra.Col("v"), algebra.Lit("hi")))})
	if err := Supported(neq); err != nil {
		t.Fatalf("≠ selections evaluate on decompositions now, got %v", err)
	}
	foq := query.NewFO("fo", query.FOOut{Name: "A", Q: fo.Query{}})
	if err := Supported(foq); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("FO must be unsupported, got %v", err)
	}
	if err := Supported(query.Identity{}); err != nil {
		t.Fatalf("identity must be supported, got %v", err)
	}
	w := sensorsWSD(t)
	got := checkEval(t, w, neq)
	if got.Empty() {
		t.Fatal("≠ selection answer world-set must be non-empty")
	}
	if _, err := apply(w, foq); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Eval must reject the unsupported fragment, got %v", err)
	}
}

func TestPossibleAndCertainAnswers(t *testing.T) {
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo")), alt(f("R", "s0", "hi"))},
	)
	q := query.NewAlgebra("all", query.Out{Name: "A", Expr: algebra.Scan("R", "s", "v")})
	poss, err := answerSet(w, q, true)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := answerSet(w, q, false)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: union / intersection of per-world answers.
	oracle := oracleAnswers(t, w, q)
	for _, fact := range []rel.Fact{{"hub", "ok"}, {"s0", "lo"}, {"s0", "hi"}} {
		if !poss.Relation("A").Has(fact) {
			t.Errorf("possible answers missing A%v", fact)
		}
	}
	if poss.Relation("A").Len() != 3 {
		t.Errorf("possible answers = %s, want 3 facts", poss)
	}
	if !cert.Relation("A").Has(rel.Fact{"hub", "ok"}) || cert.Relation("A").Len() != 1 {
		t.Errorf("certain answers = %s, want exactly A(hub ok)", cert)
	}
	_ = oracle
}

func TestContains(t *testing.T) {
	w := sensorsWSD(t)
	if ok, err := Contains(w, w); err != nil || !ok {
		t.Fatalf("rep(w) ⊆ rep(w) must hold: %v %v", ok, err)
	}

	// Pin one sensor: the restricted set is contained in the full one.
	restricted := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo"))},
		[]wsd.Alt{alt(f("R", "s1", "lo")), alt(f("R", "s1", "hi"))},
	)
	if ok, err := Contains(restricted, w); err != nil || !ok {
		t.Fatalf("restricted ⊆ full must hold: %v %v", ok, err)
	}
	if ok, err := Contains(w, restricted); err != nil || ok {
		t.Fatalf("full ⊆ restricted must fail: %v %v", ok, err)
	}

	// A decomposition with a fact outside w's support.
	alien := mustWSD(t, table.Schema{{Name: "R", Arity: 2}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo")), alt(f("R", "s0", "zap"))},
		[]wsd.Alt{alt(f("R", "s1", "lo")), alt(f("R", "s1", "hi"))},
	)
	if ok, err := Contains(alien, w); err != nil || ok {
		t.Fatalf("alien fact must break containment: %v %v", ok, err)
	}

	// Schema mismatch.
	other := mustWSD(t, table.Schema{{Name: "S", Arity: 2}},
		[]wsd.Alt{alt(f("S", "hub", "ok"))},
	)
	if ok, err := Contains(other, w); err != nil || ok {
		t.Fatalf("schema mismatch must fail containment: %v %v", ok, err)
	}

	// Empty world set on either side.
	empty := mustWSD(t, table.Schema{{Name: "R", Arity: 2}}, []wsd.Alt{})
	if ok, err := Contains(empty, w); err != nil || !ok {
		t.Fatalf("∅ ⊆ anything: %v %v", ok, err)
	}
	if ok, err := Contains(w, empty); err != nil || ok {
		t.Fatalf("nonempty ⊄ ∅: %v %v", ok, err)
	}
}

// TestContainsOracle cross-checks Contains against brute-force world
// scans on small decompositions with entangled structure.
func TestContainsOracle(t *testing.T) {
	build := func(comps ...[]wsd.Alt) *wsd.WSD {
		return mustWSD(t, table.Schema{{Name: "R", Arity: 1}}, comps...)
	}
	cases := []struct{ sub, sup *wsd.WSD }{
		// sub merges what sup keeps split.
		{build([]wsd.Alt{alt(f("R", "a"), f("R", "b")), alt()}),
			build([]wsd.Alt{alt(f("R", "a")), alt()}, []wsd.Alt{alt(f("R", "b")), alt()})},
		// sup correlates what sub treats independently (must fail).
		{build([]wsd.Alt{alt(f("R", "a")), alt()}, []wsd.Alt{alt(f("R", "b")), alt()}),
			build([]wsd.Alt{alt(f("R", "a"), f("R", "b")), alt()})},
		// partial alternative overlap.
		{build([]wsd.Alt{alt(f("R", "a")), alt(f("R", "b"))}),
			build([]wsd.Alt{alt(f("R", "a")), alt(f("R", "b")), alt(f("R", "c"))})},
		{build([]wsd.Alt{alt(f("R", "a")), alt(f("R", "c"))}),
			build([]wsd.Alt{alt(f("R", "a")), alt(f("R", "b"))})},
	}
	for i, tc := range cases {
		want := true
		tc.sub.Each(func(w *rel.Instance) bool {
			if !tc.sup.Member(w) {
				want = false
				return true
			}
			return false
		})
		got, err := Contains(tc.sub, tc.sup)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != want {
			t.Errorf("case %d: Contains = %v, oracle says %v", i, got, want)
		}
	}
}

func TestEvalConstRelOutputs(t *testing.T) {
	// Origin-free parts must survive the whole pipeline: a bare values
	// output (certain constant rows), and a union of values with an
	// uncertain scan (regression: the part-clustering union–find once
	// sliced origins[1:] on the nil origin list and panicked).
	w := mustWSD(t, table.Schema{{Name: "R", Arity: 1}},
		[]wsd.Alt{alt(f("R", "x")), alt()},
	)
	bare := query.NewAlgebra("vals", query.Out{Name: "A",
		Expr: algebra.ConstRel{Cols: []string{"c"}, Rows: [][]string{{"k"}}}})
	got := checkEval(t, w, bare)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("constant answer Count = %d, want 1", c)
	}
	if !got.CertainFact("A", rel.Fact{"k"}) {
		t.Error("A(k) must be certain")
	}
	mixed := query.NewAlgebra("mixed", query.Out{Name: "A",
		Expr: algebra.Union{
			L: algebra.ConstRel{Cols: []string{"c"}, Rows: [][]string{{"k"}}},
			R: algebra.Scan("R", "c"),
		}})
	got = checkEval(t, w, mixed)
	if c := got.Count().Int64(); c != 2 {
		t.Fatalf("mixed answer Count = %d, want 2", c)
	}
	// Overlap between the constant part and the scan: A(x) certain via
	// values, uncertain via R — the union makes it certain only when
	// the values side carries it.
	overlap := query.NewAlgebra("overlap", query.Out{Name: "A",
		Expr: algebra.Union{
			L: algebra.ConstRel{Cols: []string{"c"}, Rows: [][]string{{"x"}}},
			R: algebra.Scan("R", "c"),
		}})
	got = checkEval(t, w, overlap)
	if c := got.Count().Int64(); c != 1 {
		t.Fatalf("overlap answer Count = %d, want 1", c)
	}
	if !got.CertainFact("A", rel.Fact{"x"}) {
		t.Error("A(x) must be certain through the values branch")
	}
}

// apply is Apply as written and unobserved: the answer world set alone.
func apply(w *wsd.WSD, q query.Query) (*wsd.WSD, error) {
	out, _, _, err := Apply(w, q, Options{Decision: Written(q)})
	return out, err
}
