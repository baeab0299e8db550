package parse

import (
	"bytes"
	"strings"
	"testing"

	"pw/internal/cond"
	"pw/internal/sym"
	"pw/internal/table"
)

const sampleDB = `
# the Fig. 1 c-table
@table T(3)
  global: ?x != 1, ?y != 2
  row: 0 1 ?z | ?z = ?z
  row: 0 ?x ?y | ?y = 0
  row: ?y ?x ?x | ?x != ?y

@table S(1)
  row: 7
`

func TestParseDatabase(t *testing.T) {
	d, err := ParseDatabase(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	tb := d.Table("T")
	if tb == nil || tb.Arity != 3 || len(tb.Rows) != 3 {
		t.Fatalf("table T wrong: %v", tb)
	}
	if len(tb.Global) != 2 {
		t.Errorf("global = %v", tb.Global)
	}
	if tb.Rows[1].Values[1] != sym.Var("x") {
		t.Errorf("row value = %v", tb.Rows[1].Values)
	}
	if len(tb.Rows[2].Cond) != 1 || tb.Rows[2].Cond[0].Op != cond.Neq {
		t.Errorf("local cond = %v", tb.Rows[2].Cond)
	}
	if d.Table("S") == nil {
		t.Error("table S missing")
	}
	if d.Kind() != table.KindC {
		t.Errorf("kind = %v", d.Kind())
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	d, err := ParseDatabase(strings.NewReader(sampleDB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintDatabase(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDatabase(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if d.String() != d2.String() {
		t.Errorf("round trip changed database:\n%s\nvs\n%s", d, d2)
	}
}

const sampleInst = `
@relation T(2)
  fact: 1 2
  fact: 3 4
@relation S(1)
  fact: 9
`

func TestParseInstance(t *testing.T) {
	i, err := ParseInstance(strings.NewReader(sampleInst))
	if err != nil {
		t.Fatal(err)
	}
	if i.Relation("T").Len() != 2 || i.Relation("S").Len() != 1 {
		t.Errorf("instance = %v", i)
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	i, err := ParseInstance(strings.NewReader(sampleInst))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintInstance(&buf, i); err != nil {
		t.Fatal(err)
	}
	i2, err := ParseInstance(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !i.Equal(i2) {
		t.Error("round trip changed instance")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"row: 1 2",                       // row before @table
		"@table T(x)",                    // bad arity
		"@table T(2)\nrow: 1",            // arity mismatch
		"@table T(1)\nrow: 1 | ?x << 2",  // bad atom
		"@table T",                       // missing arity
		"bogus line",                     // unknown directive
		"@table T(1)\nglobal: ?x ?y = 1", // malformed atom side
	}
	for _, c := range cases {
		if _, err := ParseDatabase(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
	instCases := []string{
		"fact: 1",                   // fact before @relation
		"@relation R(1)\nfact: 1 2", // arity mismatch
		"@relation R(1)\nfact: ?x",  // variable in fact
		"@relation R(1)\nnonsense",  // unknown directive
	}
	for _, c := range instCases {
		if _, err := ParseInstance(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestParseAtomForms(t *testing.T) {
	a, err := ParseAtom("?x != c3")
	if err != nil || a.Op != cond.Neq || a.L != sym.Var("x") || a.R != sym.Const("c3") {
		t.Errorf("atom = %v err=%v", a, err)
	}
	a, err = ParseAtom("1 = 1")
	if err != nil || !a.TriviallyTrue() {
		t.Errorf("atom = %v err=%v", a, err)
	}
	if c, err := ParseConjunction(" true "); err != nil || len(c) != 0 {
		t.Errorf("true conjunction = %v err=%v", c, err)
	}
}
