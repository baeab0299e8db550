// Property tests for the interned builder and readers: a decomposition
// rebuilt component by component through AddComponentTuples prints
// byte-identically to the same rebuild through AddComponent, on
// generated tuple- and attribute-level decompositions, and so does one
// whose templates go through AddTemplateCells; malformed interned facts
// and templates are refused without touching the decomposition.
package wsd_test

import (
	"strings"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// templateTuples expands an attribute-level component's template into
// its instantiations as interned tuples, last slot fastest.
func templateTuples(cells [][]sym.ID) []sym.Tuple {
	out := []sym.Tuple{{}}
	for _, cell := range cells {
		var next []sym.Tuple
		for _, t := range out {
			for _, v := range cell {
				next = append(next, append(t.Clone(), v))
			}
		}
		out = next
	}
	return out
}

// rebuildTuples rebuilds w through the interned builders: stored
// alternatives from AppendAltTuples through AddComponentTuples, and templates
// either through AddTemplateCells or expanded from their slots into
// AddComponentTuples.
func rebuildTuples(t *testing.T, w *wsd.WSD, expand bool) *wsd.WSD {
	t.Helper()
	out := wsd.New(w.Schema())
	for ci := 0; ci < w.Components(); ci++ {
		var alts [][]wsd.TupleFact
		if name, cells, ok := w.TemplateSlots(ci); ok {
			ri, _ := w.RelIndex(name)
			if !expand {
				if err := out.AddTemplateCells(ri, cells...); err != nil {
					t.Fatalf("AddTemplateCells: %v", err)
				}
				continue
			}
			for _, tup := range templateTuples(cells) {
				alts = append(alts, []wsd.TupleFact{{Rel: ri, Tuple: tup}})
			}
		} else {
			for ai := 0; ai < w.AltCount(ci); ai++ {
				alt := []wsd.TupleFact{}
				for ri := range w.Schema() {
					for _, tup := range w.AppendAltTuples(nil, ci, ai, ri) {
						alt = append(alt, wsd.TupleFact{Rel: ri, Tuple: tup})
					}
				}
				alts = append(alts, alt)
			}
		}
		if err := out.AddComponentTuples(alts...); err != nil {
			t.Fatalf("AddComponentTuples: %v", err)
		}
	}
	return out
}

// rebuildFacts rebuilds w through the boundary AddComponent.
func rebuildFacts(t *testing.T, w *wsd.WSD) *wsd.WSD {
	t.Helper()
	out := wsd.New(w.Schema())
	for ci := 0; ci < w.Components(); ci++ {
		alts := make([]wsd.Alt, w.AltCount(ci))
		for ai := range alts {
			alts[ai] = w.AltFacts(ci, ai)
		}
		if err := out.AddComponent(alts...); err != nil {
			t.Fatalf("AddComponent: %v", err)
		}
	}
	return out
}

func TestAddComponentTuplesMatchesAddComponent(t *testing.T) {
	cases, templates := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		w, err := gen.RandomWSD(seed, 6, 3, 2+int(seed)%2, 6)
		if err != nil {
			continue
		}
		for ci := 0; ci < w.Components(); ci++ {
			if w.IsTemplate(ci) {
				templates++
			}
		}
		viaIDs, viaCells, viaNames := rebuildTuples(t, w, true), rebuildTuples(t, w, false), rebuildFacts(t, w)
		for _, d := range []*wsd.WSD{viaIDs, viaCells, viaNames} {
			if err := d.Normalize(); err != nil {
				t.Fatalf("seed %d: Normalize: %v", seed, err)
			}
		}
		if got, want := viaIDs.String(), viaNames.String(); got != want {
			t.Fatalf("seed %d: interned rebuild prints\n%s\nboundary rebuild prints\n%s", seed, got, want)
		}
		if got, want := viaCells.String(), viaNames.String(); got != want {
			t.Fatalf("seed %d: rebuild through AddTemplateCells prints\n%s\nboundary rebuild prints\n%s", seed, got, want)
		}
		if got, want := viaIDs.String(), w.String(); got != want {
			t.Fatalf("seed %d: rebuild prints\n%s\noriginal prints\n%s", seed, got, want)
		}
		cases++
	}
	if cases < 100 || templates == 0 {
		t.Fatalf("only %d generated cases, %d templates", cases, templates)
	}
}

func TestAddComponentTuplesRejectsMalformedInput(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}})
	ok := []wsd.TupleFact{{Rel: 0, Tuple: rel.Fact{"a", "b"}.Intern()}}
	if err := w.AddComponentTuples(ok); err != nil {
		t.Fatal(err)
	}
	before := w.String()
	for _, tc := range []struct {
		name string
		f    wsd.TupleFact
		want string
	}{
		{"negative relation index", wsd.TupleFact{Rel: -1, Tuple: rel.Fact{"a", "b"}.Intern()}, "outside the schema"},
		{"relation index past the schema", wsd.TupleFact{Rel: 2, Tuple: rel.Fact{"a"}.Intern()}, "outside the schema"},
		{"arity too small", wsd.TupleFact{Rel: 0, Tuple: rel.Fact{"a"}.Intern()}, "has arity 1, relation R expects 2"},
		{"arity too large", wsd.TupleFact{Rel: 1, Tuple: rel.Fact{"a", "b"}.Intern()}, "has arity 2, relation S expects 1"},
		{"variable", wsd.TupleFact{Rel: 1, Tuple: sym.Tuple{sym.Var("x")}}, "non-constant"},
		{"none sentinel", wsd.TupleFact{Rel: 1, Tuple: sym.Tuple{sym.None}}, "non-constant"},
	} {
		// The bad fact follows a good one in the same alternative: nothing
		// of the component may be stored.
		good := wsd.TupleFact{Rel: 1, Tuple: rel.Fact{"fresh"}.Intern()}
		err := w.AddComponentTuples([]wsd.TupleFact{good, tc.f})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if got := w.String(); got != before {
			t.Errorf("%s: decomposition changed by a refused component:\n%s", tc.name, got)
		}
	}
	if _, found := w.FactComponent("S", rel.Fact{"fresh"}); found {
		t.Error("a refused component's fact reached the support")
	}
	for _, tc := range []struct {
		name  string
		ri    int
		cells [][]sym.ID
		want  string
	}{
		{"negative relation index", -1, [][]sym.ID{{sym.Const("a")}}, "outside the schema"},
		{"relation index past the schema", 2, [][]sym.ID{{sym.Const("a")}}, "outside the schema"},
		{"slot count", 0, [][]sym.ID{{sym.Const("a")}}, "has 1 slots, relation expects 2"},
		{"variable", 1, [][]sym.ID{{sym.Const("a"), sym.Var("x")}}, "non-constant"},
		{"none sentinel", 1, [][]sym.ID{{sym.None}}, "non-constant"},
		{"reserved character", 1, [][]sym.ID{{sym.Const("a"), sym.Const("hi|lo")}}, "reserved character"},
	} {
		err := w.AddTemplateCells(tc.ri, tc.cells...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("template %s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if got := w.String(); got != before {
			t.Errorf("template %s: decomposition changed by a refused template:\n%s", tc.name, got)
		}
	}
	if _, ok := w.RelIndex("T"); ok {
		t.Error("RelIndex found a relation outside the schema")
	}
	if ri, ok := w.RelIndex("S"); !ok || ri != 1 {
		t.Errorf("RelIndex(S) = %d, %v; want 1, true", ri, ok)
	}
}
