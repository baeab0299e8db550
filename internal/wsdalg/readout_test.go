// Readout property tests: the possible and certain answer sets read
// straight off the evaluated parts must be exactly the support and the
// certain facts of Apply's normalized answer decomposition.
package wsdalg_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// normalizedSets reads the support and certain facts of an answer
// decomposition per relation, each sorted by ID.
func normalizedSets(out *wsd.WSD) (poss, cert [][]sym.Tuple) {
	n := len(out.Schema())
	poss, cert = make([][]sym.Tuple, n), make([][]sym.Tuple, n)
	if out.Empty() {
		return poss, cert
	}
	for f := range out.SupportTuples() {
		poss[f.Rel] = append(poss[f.Rel], f.Tuple)
	}
	for f := range out.CertainTuples() {
		cert[f.Rel] = append(cert[f.Rel], f.Tuple)
	}
	for i := range poss {
		slices.SortFunc(poss[i], slices.Compare[sym.Tuple])
		slices.SortFunc(cert[i], slices.Compare[sym.Tuple])
	}
	return poss, cert
}

func equalRows(a, b []sym.Tuple) bool { return slices.EqualFunc(a, b, sym.Tuple.Equal) }

// instanceOf builds the schema-shaped instance holding rows.
func instanceOf(s table.Schema, rows [][]sym.Tuple) *rel.Instance {
	inst := rel.NewInstance()
	for ri, r := range s {
		out := inst.AddRelation(rel.NewRelation(r.Name, r.Arity))
		for _, t := range rows[ri] {
			out.Insert(t)
		}
	}
	return inst
}

// checkReadout compares both readout forms — the planned Eval and the
// written one read into instances — with Apply's normalized answer. It
// reports whether Apply answered; a query Apply refuses is not compared.
func checkReadout(t *testing.T, tag string, w *wsd.WSD, q query.Query) bool {
	t.Helper()
	out, err := apply(w, q)
	if err != nil {
		return false
	}
	wantPoss, wantCert := normalizedSets(out)
	a, _, _, err := wsdalg.Eval(w, q, wsdalg.Options{})
	if err != nil {
		t.Fatalf("%s: Eval: %v (Apply answered)", tag, err)
	}
	for ri, r := range out.Schema() {
		got, err := a.Possible(ri)
		if err != nil {
			t.Fatalf("%s: Possible(%s): %v", tag, r.Name, err)
		}
		if !equalRows(got, wantPoss[ri]) {
			t.Errorf("%s: possible %s = %v, normalized support %v", tag, r.Name, got, wantPoss[ri])
		}
		if !equalRows(a.Certain(ri), wantCert[ri]) {
			t.Errorf("%s: certain %s = %v, normalized certain %v", tag, r.Name, a.Certain(ri), wantCert[ri])
		}
	}
	poss, err := answerSet(w, q, true)
	if err != nil || !poss.Equal(instanceOf(out.Schema(), wantPoss)) {
		t.Errorf("%s: written possible set = %v, %v; want the normalized support", tag, poss, err)
	}
	cert, err := answerSet(w, q, false)
	if err != nil || !cert.Equal(instanceOf(out.Schema(), wantCert)) {
		t.Errorf("%s: written certain set = %v, %v; want the normalized certain facts", tag, cert, err)
	}
	return true
}

// readoutDB builds a normalized decomposition over R(k, v) from
// components given as alternative lists of "k v" facts.
func readoutDB(t *testing.T, comps ...[][]string) *wsd.WSD {
	t.Helper()
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	for _, alts := range comps {
		as := make([]wsd.Alt, len(alts))
		for i, facts := range alts {
			for _, f := range facts {
				var k, v string
				fmt.Sscan(f, &k, &v)
				as[i] = append(as[i], wsd.Fact{Rel: "R", Args: rel.Fact{k, v}})
			}
		}
		if err := w.AddComponent(as...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

func outA(e algebra.Expr) query.Algebra {
	return query.NewAlgebra("q", query.Out{Name: "A", Expr: e})
}

// TestReadoutMatchesNormalized: the readout equals the normalized
// answer's SupportTuples/CertainTuples over the planner corpus, 120
// random attribute- and tuple-level decompositions with world-set
// algebra queries, and hand-built cases for the certainty test's edges.
func TestReadoutMatchesNormalized(t *testing.T) {
	plannerCorpus(t, func(seed int64, w *wsd.WSD, q query.Algebra, evaluates bool) {
		if evaluates {
			checkReadout(t, fmt.Sprintf("corpus seed %d", seed), w, q)
		}
	})

	schema := table.Schema{{Name: "R", Arity: 2}}
	compared, templates := 0, 0
	for seed := int64(1); seed <= 120; seed++ {
		w, err := gen.RandomWSD(seed, 4, 3, 2, 5)
		if err != nil {
			continue
		}
		for ci := 0; ci < w.Components(); ci++ {
			if _, _, ok := w.TemplateSlots(ci); ok {
				templates++
				break
			}
		}
		for depth := 1; depth <= 3; depth++ {
			q := gen.RandomWSAQuery(seed*7+int64(depth), schema, 5, depth)
			if checkReadout(t, fmt.Sprintf("random seed %d depth %d", seed, depth), w, q) {
				compared++
			}
		}
	}
	if compared < 200 || templates < 30 {
		t.Fatalf("random corpus too thin: %d cases compared, %d decompositions with templates", compared, templates)
	}

	r := algebra.Scan("R", "k", "v")
	v := func(e algebra.Expr) algebra.Expr { return algebra.Project{E: e, Cols: []string{"v"}} }
	sel := func(k string) algebra.Expr { return algebra.Where(r, algebra.EqP(algebra.Col("k"), algebra.Lit(k))) }
	// Two independent groups both yield x, neither under every choice:
	// x is possible, not certain (the world a=y, b=z lacks it). The
	// second fact of one alternative keeps each component tuple-level, so
	// its part is swept; the single-fact variant normalizes into two
	// templates, read through the template fast path.
	twoGroups := readoutDB(t,
		[][]string{{"a x", "a p"}, {"a y"}},
		[][]string{{"b x", "b q"}, {"b z"}})
	twoTemplates := readoutDB(t,
		[][]string{{"a x"}, {"a y"}},
		[][]string{{"b x"}, {"b z"}})
	// One group of two parts over the same unit: each part yields x
	// under one choice only, the group under both — x and y certain.
	swapped := readoutDB(t, [][]string{{"a x", "b y"}, {"a y", "b x"}})
	cases := []struct {
		name       string
		w          *wsd.WSD
		e          algebra.Expr
		poss, cert string
	}{
		{"two groups yield x", twoGroups, v(r), "p q x y z", ""},
		{"two templates yield x", twoTemplates, v(r), "x y z", ""},
		{"one group, two parts", swapped, algebra.Union{L: v(sel("a")), R: v(sel("b"))}, "x y", "x y"},
		{"certain(possible)", twoGroups, algebra.Certain{E: algebra.Possible{E: v(r)}}, "p q x y z", "p q x y z"},
		{"certain of two groups", twoGroups, algebra.Certain{E: v(r)}, "", ""},
		{"certain of one group", swapped, algebra.Certain{E: algebra.Union{L: v(sel("a")), R: v(sel("b"))}}, "x y", "x y"},
		{"choiceof", twoGroups, algebra.ChoiceOf{E: v(r)}, "p q x y z", ""},
		{"possible minus certain", swapped, algebra.Diff{L: algebra.Possible{E: v(r)}, R: algebra.Certain{E: v(r)}}, "", ""},
	}
	for _, c := range cases {
		q := outA(c.e)
		if !checkReadout(t, c.name, c.w, q) {
			t.Fatalf("%s: Eval refused", c.name)
		}
		a, _, _, _ := wsdalg.Eval(c.w, q, wsdalg.Options{})
		poss, _ := a.Possible(0)
		if got := rowNames(poss); got != c.poss {
			t.Errorf("%s: possible = %q, want %q", c.name, got, c.poss)
		}
		if got := rowNames(a.Certain(0)); got != c.cert {
			t.Errorf("%s: certain = %q, want %q", c.name, got, c.cert)
		}
	}
}

// rowNames renders single-column rows as their sorted names.
func rowNames(rows []sym.Tuple) string {
	names := make([]string, len(rows))
	for i, t := range rows {
		names[i] = t[0].Name()
	}
	slices.Sort(names)
	return strings.Join(names, " ")
}

// TestReadoutAnswersWhereNormalizeRefuses pins the one behaviour change
// of reading answers off the parts: the readout never merges answer
// components, so a query whose assembled answer Normalize must refuse
// (two groups of 1100 choices yield the same facts: 1100² joint
// alternatives > wsd.MaxMergeAlts) now answers. Each group sweeps its
// own 1100 choices, under the same guard.
func TestReadoutAnswersWhereNormalizeRefuses(t *testing.T) {
	const n = 1100
	var a, b [][]string
	for i := 0; i < n; i++ {
		a = append(a, []string{fmt.Sprintf("a v%d", i), "a c"})
		b = append(b, []string{fmt.Sprintf("b v%d", i)})
	}
	w := readoutDB(t, a, b)
	q := outA(algebra.Project{E: algebra.Scan("R", "k", "v"), Cols: []string{"v"}})
	if _, err := apply(w, q); err == nil || !strings.Contains(err.Error(), "too entangled to normalize") {
		t.Fatalf("Eval err = %v, want the answer-side Normalize's merge refusal", err)
	}
	poss, err := answerSet(w, q, true)
	if err != nil {
		t.Fatalf("possible set: %v", err)
	}
	cert, err := answerSet(w, q, false)
	if err != nil {
		t.Fatalf("certain set: %v", err)
	}
	// Possible: c and every v_i; certain: c alone (in every choice of
	// the first group; each v_i is missing from the world a=v_j, b=v_k
	// with i ∉ {j, k}).
	wantPoss := rel.NewRelation("A", 1)
	wantPoss.AddRow("c")
	for i := 0; i < n; i++ {
		wantPoss.AddRow(fmt.Sprintf("v%d", i))
	}
	wantCert := rel.NewRelation("A", 1)
	wantCert.AddRow("c")
	if got := poss.Relation("A"); !got.Equal(wantPoss) {
		t.Errorf("possible answers: %d facts, want %d", got.Len(), wantPoss.Len())
	}
	if got := cert.Relation("A"); !got.Equal(wantCert) {
		t.Errorf("certain answers = %v, want %v", got, wantCert)
	}
}

// apply is Apply as written and unobserved: the answer world set alone.
func apply(w *wsd.WSD, q query.Query) (*wsd.WSD, error) {
	out, _, _, err := wsdalg.Apply(w, q, wsdalg.Options{Decision: wsdalg.Written(q)})
	return out, err
}

// answerSet is Eval as written and unobserved, one answer set read into
// an instance.
func answerSet(w *wsd.WSD, q query.Query, possible bool) (*rel.Instance, error) {
	a, _, _, err := wsdalg.Eval(w, q, wsdalg.Options{Decision: wsdalg.Written(q)})
	if err != nil {
		return nil, err
	}
	return a.Instance(possible)
}

// TestIdentityReadoutMatchesSupport: the identity query's answer sets,
// read in place off the input, are its SupportTuples and CertainTuples —
// on tuple- and attribute-level decompositions, a two-relation one, and
// the empty world set — through Possible/Certain, Instance and the
// readout record. A template whose product overflows int fails only the
// possible set, with ErrEntangled.
func TestIdentityReadoutMatchesSupport(t *testing.T) {
	two := wsd.New(table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}})
	for _, alts := range [][]wsd.Alt{
		{{{Rel: "R", Args: rel.Fact{"a", "b"}}, {Rel: "S", Args: rel.Fact{"a"}}}},
		{{{Rel: "R", Args: rel.Fact{"c", "d"}}}, {{Rel: "S", Args: rel.Fact{"c"}}}},
	} {
		if err := two.AddComponent(alts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := two.AddTemplateComponent("R", []string{"e"}, []string{"f", "g"}); err != nil {
		t.Fatal(err)
	}
	empty := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	if err := empty.AddComponent(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*wsd.WSD{
		"two relations": two, "empty": empty,
		"million": gen.MillionWorldWSD(), "century": gen.CenturyWSD(), "grouped": gen.GroupedWSD(200, 20),
	}
	for seed := int64(1); seed <= 60; seed++ {
		if w, err := gen.RandomWSD(seed, 4, 3, 2, 5); err == nil {
			cases[fmt.Sprintf("random seed %d", seed)] = w
		}
	}
	for name, w := range cases {
		if err := w.Normalize(); err != nil {
			t.Fatal(err)
		}
		a, pl, _, err := wsdalg.Eval(w, query.Identity{}, wsdalg.Options{Cost: obs.NewCost()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantPoss, wantCert := normalizedSets(w)
		var nPoss, nCert int64
		for ri, r := range w.Schema() {
			poss, err := a.Possible(ri)
			if err != nil {
				t.Fatalf("%s: Possible(%s): %v", name, r.Name, err)
			}
			if got := sortedRows(poss); !equalRows(got, wantPoss[ri]) {
				t.Errorf("%s: possible %s = %v, support %v", name, r.Name, got, wantPoss[ri])
			}
			if got := sortedRows(a.Certain(ri)); !equalRows(got, wantCert[ri]) {
				t.Errorf("%s: certain %s = %v, certain tuples %v", name, r.Name, got, wantCert[ri])
			}
			nPoss, nCert = nPoss+int64(len(wantPoss[ri])), nCert+int64(len(wantCert[ri]))
		}
		for possible, want := range map[bool][][]sym.Tuple{true: wantPoss, false: wantCert} {
			inst, err := a.Instance(possible)
			if err != nil || !inst.Equal(instanceOf(w.Schema(), want)) {
				t.Errorf("%s: Instance(%v) = %v, %v; want %v", name, possible, inst, err, want)
			}
		}
		if r := pl.Readout; r == nil || r.Possible != nPoss || r.Certain != nCert {
			t.Errorf("%s: readout record %+v, want possible=%d certain=%d", name, r, nPoss, nCert)
		}
	}

	wide := wideTemplate(t, 64)
	a, _, _, err := wsdalg.Eval(wide, query.Identity{}, wsdalg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Possible(0); !errors.Is(err, wsdalg.ErrEntangled) {
		t.Errorf("overflowing template: Possible err = %v, want ErrEntangled", err)
	}
	if _, err := a.Instance(true); !errors.Is(err, wsdalg.ErrEntangled) {
		t.Errorf("overflowing template: Instance(true) err = %v, want ErrEntangled", err)
	}
	if inst, err := a.Instance(false); err != nil || inst.Relation("R").Len() != 0 {
		t.Errorf("overflowing template: certain set = %v, %v; want empty", inst, err)
	}
}

// sortedRows returns a sorted copy of rows, the order normalizedSets uses.
func sortedRows(rows []sym.Tuple) []sym.Tuple {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, slices.Compare[sym.Tuple])
	return rows
}
