// Regression coverage for the wide-template boundaries: operations on
// attribute-level components whose field products are enormous must
// either answer positionwise (never expanding) or refuse with the
// entanglement error — never hang or panic.
package wsdalg_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// wideTemplate builds one attribute-level component with the given
// number of two-value open slots (2^slots alternatives).
func wideTemplate(t *testing.T, slots int) *wsd.WSD {
	t.Helper()
	w := wsd.New(table.Schema{{Name: "R", Arity: slots}})
	cells := make([][]string, slots)
	for i := range cells {
		cells[i] = []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)}
	}
	if err := w.AddTemplateComponent("R", cells...); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestContainsWideTemplateFastPath: reflexive containment of a 2^30
// template must answer through the positionwise slot-subset path, not
// by enumerating a billion alternatives.
func TestContainsWideTemplateFastPath(t *testing.T) {
	w := wideTemplate(t, 30)
	start := time.Now()
	ok, err := wsdalg.Contains(w, w)
	if err != nil || !ok {
		t.Fatalf("Contains(w, w) = %v, %v; want true", ok, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("reflexive containment of a wide template took %s (enumeration leak)", d)
	}

	// A narrower template is contained in a wider one of the same shape
	// — still positionwise, still wide.
	narrow := wsd.New(table.Schema{{Name: "R", Arity: 30}})
	cells := make([][]string, 30)
	for i := range cells {
		cells[i] = []string{fmt.Sprintf("a%d", i)} // fixed to the first value
	}
	cells[0] = []string{"a0", "b0"} // one open slot so it stays a template
	if err := narrow.AddTemplateComponent("R", cells...); err != nil {
		t.Fatal(err)
	}
	if ok, err := wsdalg.Contains(narrow, w); err != nil || !ok {
		t.Fatalf("narrow ⊆ wide = %v, %v; want true", ok, err)
	}

	// The reverse direction cannot resolve positionwise (the wide
	// template's slots are no subset of the narrow one's) and falls back
	// to enumeration — fine at 2^10, where it finds the missing
	// instantiations and answers false.
	smallWide := wideTemplate(t, 10)
	smallNarrow := wsd.New(table.Schema{{Name: "R", Arity: 10}})
	nc := make([][]string, 10)
	for i := range nc {
		nc[i] = []string{fmt.Sprintf("a%d", i)}
	}
	nc[0] = []string{"a0", "b0"}
	if err := smallNarrow.AddTemplateComponent("R", nc...); err != nil {
		t.Fatal(err)
	}
	if ok, err := wsdalg.Contains(smallWide, smallNarrow); err != nil || ok {
		t.Fatalf("wide ⊆ narrow = %v, %v; want false", ok, err)
	}
}

// TestContainsSpreadTemplateRefuses: a wide sub template whose
// instantiations spread across several sup components cannot resolve
// positionwise; past the MaxMergeAlts bound the enumeration fallback
// must refuse with ErrEntangled instead of looping 2^25 times.
func TestContainsSpreadTemplateRefuses(t *testing.T) {
	const slots = 25 // 2^25 > MaxMergeAlts = 2^20
	sub := wideTemplate(t, slots)

	// sup splits the same instantiation set along slot 0: two templates
	// with disjoint first-slot domains, so no single sup template
	// contains sub's.
	sup := wsd.New(table.Schema{{Name: "R", Arity: slots}})
	for _, first := range []string{"a0", "b0"} {
		cells := make([][]string, slots)
		cells[0] = []string{first}
		for i := 1; i < slots; i++ {
			cells[i] = []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)}
		}
		if err := sup.AddTemplateComponent("R", cells...); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := wsdalg.Contains(sub, sup)
	if !errors.Is(err, wsdalg.ErrEntangled) {
		t.Fatalf("spread wide template: err = %v, want ErrEntangled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusal took %s (enumeration before the guard)", d)
	}
}

// TestPossibleAnswersOverflowErrors: a 64-slot template's instantiation
// count overflows int; the possible set must return the entanglement
// error through its error path, not panic inside Support.
func TestPossibleAnswersOverflowErrors(t *testing.T) {
	w := wideTemplate(t, 64)
	_, err := answerSet(w, query.Identity{}, true)
	if !errors.Is(err, wsdalg.ErrEntangled) {
		t.Fatalf("err = %v, want ErrEntangled", err)
	}
	// The certain set reads only the certain facts (templates are never
	// certain) and must keep working at any width.
	if _, err := answerSet(w, query.Identity{}, false); err != nil {
		t.Fatalf("certain set: %v", err)
	}
}
