// Table-driven coverage of the ToWSD compiler's error paths and of the
// attribute-factoring pass: unforced row nulls are ErrInfiniteRep
// (whatever other columns or rows look like), forced and condition-only
// variables compile, and compiled databases with independent nulls land
// in per-slot template form — product-of-slots, not product-of-facts.
package wsd_test

import (
	"errors"
	"strings"
	"testing"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

func parseVal(s string) sym.ID {
	if strings.HasPrefix(s, "?") {
		return sym.Var(s[1:])
	}
	return sym.Const(s)
}

func tupleOf(vals ...string) sym.Tuple {
	t := make(sym.Tuple, len(vals))
	for i, v := range vals {
		t[i] = parseVal(v)
	}
	return t
}

func eq(l, r string) cond.Atom { return cond.EqAtom(parseVal(l), parseVal(r)) }

// TestToWSDErrorPaths pins the compiler's acceptance boundary.
func TestToWSDErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *table.Database
		infinite bool   // want ErrInfiniteRep
		count    int64  // else: want this exact Count
		certain  string // optional: a fact (space-separated) that must be certain
	}{
		{
			name: "unforced row null",
			build: func() *table.Database {
				tb := table.New("T", 1)
				tb.AddTuple(parseVal("?z"))
				return table.DB(tb)
			},
			infinite: true,
		},
		{
			name: "mixed forced and unforced columns in one row",
			build: func() *table.Database {
				tb := table.New("T", 2)
				tb.AddTuple(parseVal("?x"), parseVal("?y"))
				tb.Global = append(tb.Global, eq("?x", "a"))
				return table.DB(tb)
			},
			infinite: true,
		},
		{
			name: "forced row beside an unforced row",
			build: func() *table.Database {
				tb := table.New("T", 2)
				tb.AddTuple(parseVal("a"), parseVal("?x"))
				tb.AddTuple(parseVal("b"), parseVal("?y"))
				tb.Global = append(tb.Global, eq("?x", "b"))
				return table.DB(tb)
			},
			infinite: true,
		},
		{
			name: "unforced null under an inequality is still infinite",
			build: func() *table.Database {
				tb := table.New("T", 1)
				tb.AddTuple(parseVal("?z"))
				tb.Global = append(tb.Global, cond.NeqAtom(parseVal("?z"), parseVal("a")))
				return table.DB(tb)
			},
			infinite: true,
		},
		{
			name: "forced variable compiles to one certain world",
			build: func() *table.Database {
				tb := table.New("T", 2)
				tb.AddTuple(parseVal("a"), parseVal("?x"))
				tb.Global = append(tb.Global, eq("?x", "b"))
				return table.DB(tb)
			},
			count:   1,
			certain: "a b",
		},
		{
			name: "equality chain forces both columns",
			build: func() *table.Database {
				tb := table.New("T", 2)
				tb.AddTuple(parseVal("?x"), parseVal("?y"))
				tb.Global = append(tb.Global, eq("?x", "?y"), eq("?y", "c"))
				return table.DB(tb)
			},
			count:   1,
			certain: "c c",
		},
		{
			name: "condition-only variable is finite",
			build: func() *table.Database {
				tb := table.New("T", 1)
				tb.Add(table.Row{Values: tupleOf("a"), Cond: cond.Conj(eq("?y", "b"))})
				return table.DB(tb)
			},
			count: 2, // row on / row off
		},
		{
			name: "unsatisfiable global compiles to the empty world set",
			build: func() *table.Database {
				tb := table.New("T", 1)
				tb.AddTuple(parseVal("a"))
				tb.Global = append(tb.Global, eq("b", "c"))
				return table.DB(tb)
			},
			count: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := wsd.ToWSD(tc.build())
			if tc.infinite {
				if err == nil {
					t.Fatalf("ToWSD accepted an infinite rep:\n%s", w)
				}
				if !errors.Is(err, wsd.ErrInfiniteRep) {
					t.Fatalf("error does not wrap ErrInfiniteRep: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ToWSD: %v", err)
			}
			if got := w.Count(); !got.IsInt64() || got.Int64() != tc.count {
				t.Fatalf("Count = %s, want %d", got, tc.count)
			}
			if tc.count == 0 && !w.Empty() {
				t.Fatal("zero-world compile must report Empty")
			}
			if tc.certain != "" {
				if !w.CertainFact("T", rel.Fact(strings.Fields(tc.certain))) {
					t.Fatalf("fact %q not certain:\n%s", tc.certain, w)
				}
			}
		})
	}
}

// TestToWSDAttributeFactoring is the product-of-slots promise: a
// compiled database whose nulls are independent lands in template form
// — one attribute-level component per independent null group, its slot
// domains the enumeration domain — instead of one alternative per
// valuation.
func TestToWSDAttributeFactoring(t *testing.T) {
	dom := []string{"a", "b", "c"}

	// One row, one null: a 1-open-slot template over the domain.
	tb := table.New("T", 2)
	tb.AddTuple(parseVal("k"), parseVal("?x"))
	w, err := wsd.ToWSDOverDomain(table.DB(tb), dom)
	if err != nil {
		t.Fatal(err)
	}
	if w.Components() != 1 || !w.IsTemplate(0) {
		t.Fatalf("single independent null did not compile to a template:\n%s", w)
	}
	if _, cells, _ := w.TemplateSlots(0); len(cells[0]) != 1 || len(cells[1]) != len(dom) {
		t.Fatalf("template slots %v, want fixed k × %d-value domain", cells, len(dom))
	}

	// One row, two independent nulls: a two-open-slot template — |D|²
	// alternatives in 2·|D| symbols.
	tb2 := table.New("T", 2)
	tb2.AddTuple(parseVal("?x"), parseVal("?y"))
	w2, err := wsd.ToWSDOverDomain(table.DB(tb2), dom)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Components() != 1 || !w2.IsTemplate(0) {
		t.Fatalf("independent row nulls did not compile to a template:\n%s", w2)
	}
	if got := w2.Count().Int64(); got != int64(len(dom)*len(dom)) {
		t.Fatalf("Count = %d, want |D|² = %d", got, len(dom)*len(dom))
	}

	// Correlated nulls (repeated variable) are NOT a product: they must
	// stay tuple-level, |D| alternatives on the diagonal.
	tb3 := table.New("T", 2)
	tb3.AddTuple(parseVal("?x"), parseVal("?x"))
	w3, err := wsd.ToWSDOverDomain(table.DB(tb3), dom)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Components() != 1 || w3.IsTemplate(0) {
		t.Fatalf("correlated nulls wrongly factored:\n%s", w3)
	}
	if got := w3.Count().Int64(); got != int64(len(dom)) {
		t.Fatalf("Count = %d, want |D| = %d", got, len(dom))
	}

	// Two rows with independent nulls: two independent templates, |D|²
	// worlds as a product of slots across components... unless the rows
	// can collide (same relation, overlapping instantiations), in which
	// case the merge keeps the count exact — pin both effects via Count.
	tb4 := table.New("T", 2)
	tb4.AddTuple(parseVal("u"), parseVal("?x"))
	tb4.AddTuple(parseVal("v"), parseVal("?y"))
	w4, err := wsd.ToWSDOverDomain(table.DB(tb4), dom)
	if err != nil {
		t.Fatal(err)
	}
	if w4.Components() != 2 || !w4.IsTemplate(0) || !w4.IsTemplate(1) {
		t.Fatalf("independent rows did not compile to two templates:\n%s", w4)
	}
	if got := w4.Count().Int64(); got != int64(len(dom)*len(dom)) {
		t.Fatalf("Count = %d, want |D|² = %d", got, len(dom)*len(dom))
	}
}
