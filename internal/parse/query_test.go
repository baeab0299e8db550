package parse

import (
	"fmt"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/query"
	"pw/internal/rel"
)

func TestParseQueryRoundTrip(t *testing.T) {
	src := `# high readings per sensor
@query high
  out: A = project[s](select[#v = hi](Reading(s v)))
  out: B = union(Reading(s v), Reading(s v))
`
	q, err := ParseQuery(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "high" || len(q.Outs) != 2 {
		t.Fatalf("parsed %s with %d outs", q.Label(), len(q.Outs))
	}
	var printed strings.Builder
	if err := PrintQuery(&printed, q); err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(strings.NewReader(printed.String()))
	if err != nil {
		t.Fatalf("printed form does not re-parse: %v\n%s", err, printed.String())
	}
	var printed2 strings.Builder
	if err := PrintQuery(&printed2, q2); err != nil {
		t.Fatal(err)
	}
	if printed.String() != printed2.String() {
		t.Fatalf("print is not a fixed point:\n%s\nvs\n%s", printed.String(), printed2.String())
	}
}

func TestParseQueryExprForms(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical printed form; "" means same as src
	}{
		{"R(a b)", ""},
		{"project[a, b](R(a b))", ""},
		{"project[ a,b ](R(a  b))", "project[a, b](R(a b))"},
		{"select[#a = x, #a != #b](R(a b))", ""},
		{"rename[a->z](R(a b))", ""},
		{"join(R(a b), S(b c))", ""},
		{"union(R(a b), R(a b))", ""},
		{"values[a b](x y; z w)", ""},
		{"values[a]()", ""},
		{"join(project[a](R(a b)), select[#a = c0](S(a)))", ""},
		{"possible(R(a b))", ""},
		{"certain(possible(select[#v = hi](Reading(s v))))", ""},
		{"choiceof(possible(R(a b)))", ""},
		{"diff(R(a b), S(a b))", ""},
		{"join(choiceof(R(a b)), diff(S(b c), certain(S(b c))))", ""},
		{"possible( certain( R(a) ) )", "possible(certain(R(a)))"},
	}
	for _, tc := range cases {
		e, err := ParseQueryExpr(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		got, err := FormatQueryExpr(e)
		if err != nil {
			t.Errorf("%q: format: %v", tc.src, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.src
		}
		if got != want {
			t.Errorf("%q: printed as %q, want %q", tc.src, got, want)
		}
		if _, err := ParseQueryExpr(got); err != nil {
			t.Errorf("%q: canonical form %q does not re-parse: %v", tc.src, got, err)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"out: A = R(a)\n",                            // out before @query
		"@query\n",                                   // no outs
		"@query\n  out: A = \n",                      // empty expression
		"@query\n  out: A = R(a\n",                   // unclosed paren
		"@query\n  out: A = project[](R(a))\n",       // empty projection list
		"@query\n  out: A = project[z](R(a))\n",      // unknown column (schema check)
		"@query\n  out: A = R(a)\n  out: A = R(a)\n", // duplicate out
		"@query\n  out: A = select[#a](R(a))\n",      // predicate lacks operator
		"@query\n  nonsense\n",
		"@query\n@query\n  out: A = R(a)\n", // duplicate block
	}
	for _, src := range bad {
		if _, err := ParseQuery(strings.NewReader(src)); err == nil {
			t.Errorf("accepted malformed query:\n%s", src)
		}
	}
}

func TestParseQueryEvaluates(t *testing.T) {
	q, err := ParseQuery(strings.NewReader(
		"@query\n  out: A = project[who](join(Emp(who dept), select[#floor = 2](Dept(dept floor))))\n"))
	if err != nil {
		t.Fatal(err)
	}
	inst := rel.NewInstance()
	emp := inst.EnsureRelation("Emp", 2)
	emp.AddRow("carol", "eng")
	emp.AddRow("dana", "sales")
	dept := inst.EnsureRelation("Dept", 2)
	dept.AddRow("eng", "2")
	dept.AddRow("sales", "1")
	out, err := query.Query(q).Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Relation("A"); r == nil || r.Len() != 1 || !r.Has(rel.Fact{"carol"}) {
		t.Fatalf("evaluated to %s, want A(carol)", out)
	}
}

func TestParseSourceDispatchesQuery(t *testing.T) {
	src, err := ParseSource(strings.NewReader("@query q1\n  out: A = R(a)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if src.Query == nil || src.DB != nil || src.WSD != nil {
		t.Fatalf("dispatcher returned %+v, want only Query set", src)
	}
	if src.Query.Name != "q1" {
		t.Fatalf("query name %q", src.Query.Name)
	}
}

// Interface sanity: parsed queries are liftable positive algebra unless
// they use ≠.
func TestParsedQueryFragment(t *testing.T) {
	pos, err := ParseQuery(strings.NewReader("@query\n  out: A = select[#a = x](R(a))\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !pos.Positive() {
		t.Error("equality-only query must be positive")
	}
	neg, err := ParseQuery(strings.NewReader("@query\n  out: A = select[#a != x](R(a))\n"))
	if err != nil {
		t.Fatal(err)
	}
	if neg.Positive() {
		t.Error("≠ query must not be positive")
	}
	if _, ok := query.AsLiftable(query.Query(neg)); !ok {
		t.Error("algebra queries must be liftable")
	}
	var _ algebra.Expr = pos.Outs[0].Expr
}

// World-set operators parse, print canonically, and are flagged by the
// query-level fragment predicates; per-instance evaluation refuses them.
func TestParsedWorldSetQueryFragment(t *testing.T) {
	ws, err := ParseQuery(strings.NewReader("@query\n  out: A = certain(possible(R(a)))\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ws.Positive() {
		t.Error("world-set query must not be positive")
	}
	if !query.HasWorldSetOps(ws) {
		t.Error("HasWorldSetOps must flag possible/certain")
	}
	if _, err := query.Query(ws).Eval(rel.NewInstance()); err == nil {
		t.Error("single-instance Eval must refuse world-set operators")
	}
	d, err := ParseQuery(strings.NewReader("@query\n  out: A = diff(R(a), S(a))\n"))
	if err != nil {
		t.Fatal(err)
	}
	if query.HasWorldSetOps(d) {
		t.Error("diff alone is a per-world map, not a world-set operator")
	}
	inst := rel.NewInstance()
	r := inst.EnsureRelation("R", 1)
	r.AddRow("x")
	r.AddRow("y")
	s := inst.EnsureRelation("S", 1)
	s.AddRow("y")
	out, err := query.Query(d).Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if a := out.Relation("A"); a == nil || a.Len() != 1 || !a.Has(rel.Fact{"x"}) {
		t.Fatalf("diff evaluated to %s, want A(x)", out)
	}
}

// TestParseQueryLongValuesLine: an out line over 64 KiB, well inside a
// request body's bound, parses like a short one.
func TestParseQueryLongValuesLine(t *testing.T) {
	vals := make([]string, 12000)
	for i := range vals {
		vals[i] = fmt.Sprintf("c%d", i)
	}
	src := "@query\n  out: A = values[x](" + strings.Join(vals, "; ") + ")\n"
	if len(src) <= 64<<10 {
		t.Fatalf("source has %d bytes, want over 64 KiB", len(src))
	}
	q, err := ParseQuery(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(rel.NewInstance())
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Relation("A"); r.Len() != len(vals) || !r.Has(rel.Fact{"c11999"}) {
		t.Fatalf("A has %d facts, want %d", r.Len(), len(vals))
	}
}
