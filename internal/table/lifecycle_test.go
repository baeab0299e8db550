package table_test

import (
	"testing"

	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/table"
)

// TestOneCompilePerDatabase: the first decision on a database builds
// its compiled form and every later decision, of every problem, reuses
// that same value.
func TestOneCompilePerDatabase(t *testing.T) {
	d := table.DB(gen.CoddTable(3, "T", 40, 3, 20, 0.3))
	i0, ok := gen.MemberInstance(3, d)
	if !ok {
		t.Fatal("no member instance")
	}
	if table.LoadedCompiled(d) != nil {
		t.Fatal("compiled before any decision")
	}
	o := decide.Options{Workers: 1}
	id := query.Identity{}
	if yes, err := o.Membership(i0, id, d); err != nil || !yes {
		t.Fatalf("membership = %v, %v", yes, err)
	}
	c := table.LoadedCompiled(d)
	if c == nil {
		t.Fatal("the first decision did not publish a compiled form")
	}
	for n := 0; n < 5; n++ {
		if _, err := o.Membership(i0, id, d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Possible(i0, id, d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Certain(i0, id, d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Uniqueness(id, d, i0); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Containment(id, d, id, d); err != nil {
			t.Fatal(err)
		}
		if got := table.LoadedCompiled(d); got != c {
			t.Fatalf("round %d: compiled form replaced (%p → %p)", n, c, got)
		}
	}
}
