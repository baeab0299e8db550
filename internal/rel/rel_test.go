package rel

import (
	"testing"
	"testing/quick"

	"pw/internal/sym"
)

func TestFactBasics(t *testing.T) {
	f := Fact{"a", "b"}
	if f.Key() != "a\x00b" {
		t.Errorf("Key = %q", f.Key())
	}
	g := f.Clone()
	g[0] = "z"
	if f[0] != "a" {
		t.Error("Clone aliases")
	}
	if !f.Equal(Fact{"a", "b"}) || f.Equal(Fact{"a"}) || f.Equal(Fact{"a", "c"}) {
		t.Error("Equal broken")
	}
	if f.String() != "(a, b)" {
		t.Errorf("String = %q", f.String())
	}
}

func TestFactCompare(t *testing.T) {
	cases := []struct {
		a, b Fact
		want int
	}{
		{Fact{"a"}, Fact{"b"}, -1},
		{Fact{"b"}, Fact{"a"}, 1},
		{Fact{"a"}, Fact{"a"}, 0},
		{Fact{"a"}, Fact{"a", "a"}, -1},
		{Fact{"a", "b"}, Fact{"a"}, 1},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("R", 2)
	r.AddRow("1", "2")
	r.AddRow("1", "2")
	r.AddRow("3", "4")
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2 (set semantics)", r.Len())
	}
	if !r.Has(Fact{"1", "2"}) || r.Has(Fact{"2", "1"}) {
		t.Error("Has broken")
	}
}

func TestRelationArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	NewRelation("R", 2).AddRow("only-one")
}

func TestRelationFactsSorted(t *testing.T) {
	r := NewRelation("R", 1)
	r.AddRow("c")
	r.AddRow("a")
	r.AddRow("b")
	fs := r.Facts()
	if fs[0][0] != "a" || fs[1][0] != "b" || fs[2][0] != "c" {
		t.Errorf("Facts not sorted: %v", fs)
	}
}

func TestRelationEqualSubset(t *testing.T) {
	a := NewRelation("R", 1)
	a.AddRow("1")
	b := NewRelation("R", 1)
	b.AddRow("1")
	b.AddRow("2")
	if a.Equal(b) {
		t.Error("different sets reported equal")
	}
	if !a.SubsetOf(b) {
		t.Error("subset not detected")
	}
	if b.SubsetOf(a) {
		t.Error("superset reported as subset")
	}
	a.AddRow("2")
	if !a.Equal(b) {
		t.Error("equal sets reported different")
	}
}

func TestRelationCloneUnion(t *testing.T) {
	a := NewRelation("R", 1)
	a.AddRow("1")
	c := a.Clone()
	c.AddRow("2")
	if a.Len() != 1 {
		t.Error("Clone aliases")
	}
	a.UnionWith(c)
	if a.Len() != 2 {
		t.Error("UnionWith broken")
	}
}

func TestInstanceBasics(t *testing.T) {
	i := NewInstance()
	r := i.EnsureRelation("R", 2)
	r.AddRow("1", "2")
	i.EnsureRelation("S", 1).AddRow("9")
	if i.Relation("R") == nil || i.Relation("missing") != nil {
		t.Error("Relation lookup broken")
	}
	if i.Size() != 2 {
		t.Errorf("Size = %d", i.Size())
	}
	j := i.Clone()
	j.Relation("R").AddRow("7", "8")
	if i.Relation("R").Len() != 1 {
		t.Error("Clone aliases")
	}
}

func TestInstanceEqualIsSchemaSensitive(t *testing.T) {
	i := NewInstance()
	i.EnsureRelation("R", 1)
	j := NewInstance()
	j.EnsureRelation("S", 1)
	if i.Equal(j) {
		t.Error("different schemas must not be equal")
	}
	k := NewInstance()
	k.EnsureRelation("R", 1)
	if !i.Equal(k) {
		t.Error("empty same-schema instances must be equal")
	}
}

func TestInstanceSubsetOf(t *testing.T) {
	i := NewInstance()
	i.EnsureRelation("R", 1).AddRow("1")
	j := NewInstance()
	j.EnsureRelation("R", 1).AddRow("1")
	j.Relation("R").AddRow("2")
	if !i.SubsetOf(j) || j.SubsetOf(i) {
		t.Error("SubsetOf broken")
	}
	// A relation missing from the superset counts as empty.
	i.EnsureRelation("S", 1).AddRow("5")
	if i.SubsetOf(j) {
		t.Error("missing relation with facts must break subset")
	}
}

func TestInstanceKeyCanonical(t *testing.T) {
	build := func(order []string) *Instance {
		i := NewInstance()
		for _, n := range order {
			i.EnsureRelation(n, 1)
		}
		i.Relation("R").AddRow("1")
		i.Relation("S").AddRow("2")
		return i
	}
	a := build([]string{"R", "S"})
	b := build([]string{"S", "R"})
	if a.Key() != b.Key() {
		t.Error("Key must not depend on relation insertion order")
	}
}

func TestInstanceKeyInjective(t *testing.T) {
	f := func(xs []string) bool {
		a := NewInstance()
		ra := a.EnsureRelation("R", 1)
		for _, x := range xs {
			if x == "" {
				continue
			}
			ra.AddRow(x)
		}
		b := NewInstance()
		rb := b.EnsureRelation("R", 1)
		for _, x := range xs {
			if x == "" {
				continue
			}
			rb.AddRow(x)
		}
		return a.Key() == b.Key() && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstsCollection(t *testing.T) {
	i := NewInstance()
	i.EnsureRelation("R", 2).AddRow("a", "b")
	i.EnsureRelation("S", 1).AddRow("a")
	cs := i.ConstIDs(nil, map[sym.ID]bool{})
	if len(cs) != 2 {
		t.Errorf("Consts = %v, want a,b deduplicated", cs)
	}
}

func TestDuplicateRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate relation must panic")
		}
	}()
	i := NewInstance()
	i.AddRelation(NewRelation("R", 1))
	i.AddRelation(NewRelation("R", 1))
}
