package parse

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

const sampleWSD = `# two uncertain assignments, one certain department
@wsd
  relation: Emp(2)
  relation: Dept(2)
  component:
    alt: Emp(carol sales), Emp(dana eng)
    alt: Emp(carol eng), Emp(dana sales)
  component:
    alt: Dept(eng 1)
    alt: Dept(eng 2)
  component:
    alt: Dept(sales 1)
`

func TestParseWSD(t *testing.T) {
	w, err := ParseWSD(strings.NewReader(sampleWSD))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Count().Int64(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := len(w.Schema()); got != 2 {
		t.Fatalf("schema has %d relations, want 2", got)
	}
}

func TestPrintWSDRoundTrip(t *testing.T) {
	w, err := ParseWSD(strings.NewReader(sampleWSD))
	if err != nil {
		t.Fatal(err)
	}
	var printed strings.Builder
	if err := PrintWSD(&printed, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWSD(strings.NewReader(printed.String()))
	if err != nil {
		t.Fatalf("printed form does not re-parse: %v\n%s", err, printed.String())
	}
	var printed2 strings.Builder
	if err := PrintWSD(&printed2, w2); err != nil {
		t.Fatal(err)
	}
	if printed.String() != printed2.String() {
		t.Fatalf("print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", printed.String(), printed2.String())
	}
}

func TestParseWSDErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"no_block", "component:\n"},
		{"alt_outside", "@wsd\n  alt: R(a)\n"},
		{"dup_wsd", "@wsd\n@wsd\n"},
		{"dup_relation", "@wsd\n  relation: R(1)\n  relation: R(2)\n"},
		{"late_relation", "@wsd\n  component:\n  relation: R(1)\n"},
		{"unknown_rel", "@wsd\n  relation: R(1)\n  component:\n    alt: S(a)\n"},
		{"arity", "@wsd\n  relation: R(2)\n  component:\n    alt: R(a)\n"},
		{"var_fact", "@wsd\n  relation: R(1)\n  component:\n    alt: R(?x)\n"},
		{"bad_fact", "@wsd\n  relation: R(1)\n  component:\n    alt: R a\n"},
		{"table_mix", "@wsd\n@table T(1)\n  row: a\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseWSD(strings.NewReader(tc.input)); err == nil {
				t.Errorf("accepted %q", tc.input)
			}
		})
	}
}

func TestParseWSDEmptyWorldSet(t *testing.T) {
	w, err := ParseWSD(strings.NewReader("@wsd\n  relation: R(1)\n  component:\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !w.Empty() || w.Count().Sign() != 0 {
		t.Fatal("altless component must denote the empty world set")
	}
	// And the empty world set round-trips.
	var printed strings.Builder
	if err := PrintWSD(&printed, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWSD(strings.NewReader(printed.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Empty() {
		t.Fatal("empty world set did not survive the round trip")
	}
}

func TestParseSourceDispatch(t *testing.T) {
	src, err := ParseSource(strings.NewReader(sampleWSD))
	if err != nil {
		t.Fatal(err)
	}
	if src.WSD == nil || src.DB != nil {
		t.Fatal("@wsd input did not dispatch to the decomposition parser")
	}
	src, err = ParseSource(strings.NewReader("# c\n@table T(1)\n  row: ?x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if src.DB == nil || src.WSD != nil {
		t.Fatal("@table input did not dispatch to the database parser")
	}
	if _, err := ParseSource(strings.NewReader("nonsense\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPrintAnswersMatchesPrintInstance: a readout prints exactly as the
// instance holding the same answer set, for both sets and a two-relation
// answer; a possible set too large to materialize is an error.
func TestPrintAnswersMatchesPrintInstance(t *testing.T) {
	w, err := ParseWSD(strings.NewReader(sampleWSD))
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewAlgebra("q",
		query.Out{Name: "A", Expr: algebra.Project{E: algebra.Scan("Emp", "e", "d"), Cols: []string{"d"}}},
		query.Out{Name: "B", Expr: algebra.Scan("Dept", "d", "n")})
	a, _, _, err := wsdalg.Eval(w, q, wsdalg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	written, _, _, err := wsdalg.Eval(w, q, wsdalg.Options{Decision: wsdalg.Written(q)})
	if err != nil {
		t.Fatal(err)
	}
	for _, possible := range []bool{true, false} {
		inst, err := written.Instance(possible)
		if err != nil {
			t.Fatal(err)
		}
		var got, want strings.Builder
		if err := PrintAnswers(&got, a, possible); err != nil {
			t.Fatal(err)
		}
		if err := PrintInstance(&want, inst); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("possible=%v: PrintAnswers\n%s\nPrintInstance\n%s", possible, got.String(), want.String())
		}
	}

	wide := wsd.New(table.Schema{{Name: "R", Arity: 64}})
	cells := make([][]string, 64)
	for i := range cells {
		cells[i] = []string{"a", "b"}
	}
	if err := wide.AddTemplateComponent("R", cells...); err != nil {
		t.Fatal(err)
	}
	cols := make([]string, 64)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	a, _, _, err = wsdalg.Eval(wide, query.NewAlgebra("all", query.Out{Name: "A", Expr: algebra.Scan("R", cols...)}), wsdalg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := PrintAnswers(io.Discard, a, true); !errors.Is(err, wsdalg.ErrEntangled) {
		t.Errorf("overflowing possible set: err = %v, want ErrEntangled", err)
	}
	if err := PrintAnswers(io.Discard, a, false); err != nil {
		t.Errorf("certain set of a wide template: %v", err)
	}
}
