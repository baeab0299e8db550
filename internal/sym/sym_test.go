package sym

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInternRoundTrip(t *testing.T) {
	// intern → resolve → intern is the identity, for both namespaces.
	f := func(name string) bool {
		c := Const(name)
		v := Var(name)
		return c.Name() == name && v.Name() == name &&
			Const(c.Name()) == c && Var(v.Name()) == v &&
			!c.IsVar() && v.IsVar() && c != v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInternStable(t *testing.T) {
	a := Const("stable-const")
	for i := 0; i < 100; i++ {
		if Const("stable-const") != a {
			t.Fatal("re-interning must return the same ID")
		}
	}
}

func TestNamespacesDisjoint(t *testing.T) {
	// 𝒟 ∩ 𝒱 = ∅: the same name yields distinct symbols per kind.
	names := []string{"", "x", "0", "~z0", "日本語"}
	for _, n := range names {
		c, v := Const(n), Var(n)
		if c == v {
			t.Errorf("Const(%q) == Var(%q)", n, n)
		}
		if c.IsVar() || !v.IsVar() {
			t.Errorf("kind bits wrong for %q", n)
		}
		if c.Name() != n || v.Name() != n {
			t.Errorf("resolution broken for %q", n)
		}
	}
}

func TestZeroIDIsEmptyConstant(t *testing.T) {
	// A zero cell (an unset table value) is the empty-named constant.
	var zero ID
	if zero.IsVar() || zero.Name() != "" {
		t.Errorf("zero ID = %v (%q)", zero, zero.Name())
	}
	if Const("") != zero {
		t.Error("empty constant must be ID 0")
	}
}

func TestLookupConstDoesNotIntern(t *testing.T) {
	name := fmt.Sprintf("never-interned-%d", rand.Int63())
	if _, ok := LookupConst(name); ok {
		t.Fatal("lookup of a fresh name must miss")
	}
	n := ConstCount()
	LookupConst(name)
	if ConstCount() != n {
		t.Error("LookupConst grew the intern table")
	}
	id := Const(name)
	got, ok := LookupConst(name)
	if !ok || got != id {
		t.Error("LookupConst must find interned names")
	}
}

func TestCompareOrdersConstantsBeforeVariables(t *testing.T) {
	if Compare(Const("z"), Var("a")) != -1 {
		t.Error("constants sort before variables")
	}
	if Compare(Var("a"), Var("b")) != -1 || Compare(Var("b"), Var("a")) != 1 {
		t.Error("variables sort by name")
	}
	if Compare(Const("x"), Const("x")) != 0 {
		t.Error("equal IDs compare equal")
	}
}

func TestCompareOrdersConstantsFirst(t *testing.T) {
	if Compare(Const("z"), Var("a")) != -1 {
		t.Error("constants must sort before variables")
	}
	if Compare(Var("a"), Const("z")) != 1 {
		t.Error("variables must sort after constants")
	}
	if Compare(Const("a"), Const("b")) != -1 {
		t.Error("name order broken")
	}
	if Compare(Var("x"), Var("x")) != 0 {
		t.Error("equal values must compare 0")
	}
}

func TestConstVarDistinct(t *testing.T) {
	c := Const("x")
	v := Var("x")
	if c == v {
		t.Fatal("constant x and variable x must differ")
	}
	if c.IsVar() {
		t.Error("Const kind wrong")
	}
	if !v.IsVar() {
		t.Error("Var kind wrong")
	}
	if c.Name() != "x" || v.Name() != "x" {
		t.Error("names wrong")
	}
}

func TestString(t *testing.T) {
	if got := Const("a").String(); got != "a" {
		t.Errorf("constant prints as %q", got)
	}
	if got := Var("a").String(); got != "?a" {
		t.Errorf("variable prints as %q", got)
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	id := func(name string, isVar bool) ID {
		if isVar {
			return Var(name)
		}
		return Const(name)
	}
	f := func(an, bn string, av, bv bool) bool {
		a, b := id(an, av), id(bn, bv)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleBasics(t *testing.T) {
	tp := Tuple{Const("1"), Var("x"), Const("2")}
	c := tp.Clone()
	c[0] = Const("9")
	if tp[0] != Const("1") {
		t.Error("Clone aliases the original")
	}
	if !tp.Equal(Tuple{Const("1"), Var("x"), Const("2")}) {
		t.Error("Equal broken")
	}
	if tp.Equal(Tuple{Const("1"), Var("y"), Const("2")}) {
		t.Error("Equal ignores variable names")
	}
	if tp.String() != "(1, ?x, 2)" {
		t.Errorf("String = %q", tp.String())
	}
}

func TestTupleVarIDsDedup(t *testing.T) {
	vs := Tuple{Var("x"), Const("x"), Var("y"), Var("x")}.VarIDs(nil, map[ID]bool{})
	if !slices.Equal(vs, []ID{Var("x"), Var("y")}) {
		t.Errorf("VarIDs = %v", vs)
	}
}

// TestSortTuples: the canonical tuple order (Tuple.Compare) compares
// position by position, constants before variables, a prefix first.
func TestSortTuples(t *testing.T) {
	ts := []Tuple{
		{Var("x")},
		{Const("b")},
		{Const("a"), Const("a")},
		{Const("a")},
	}
	slices.SortFunc(ts, Tuple.Compare)
	want := []string{"(a)", "(a, a)", "(b)", "(?x)"}
	for i, w := range want {
		if ts[i].String() != w {
			t.Errorf("position %d = %s, want %s", i, ts[i], w)
		}
	}
}

func TestTupleCompareIsAntisymmetric(t *testing.T) {
	tuple := func(names []string) Tuple {
		out := make(Tuple, len(names))
		for i, n := range names {
			out[i] = Const(n)
		}
		return out
	}
	f := func(a, b []string) bool {
		ta, tb := tuple(a), tuple(b)
		return ta.Compare(tb) == -tb.Compare(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleFingerprintRespectsEquality(t *testing.T) {
	f := func(a, b []uint8) bool {
		ta := make(Tuple, len(a))
		for i, x := range a {
			ta[i] = Const(fmt.Sprintf("c%d", x))
		}
		tb := make(Tuple, len(b))
		for i, x := range b {
			tb[i] = Const(fmt.Sprintf("c%d", x))
		}
		if ta.Equal(tb) {
			return ta.Fingerprint() == tb.Fingerprint()
		}
		return true // unequal tuples may collide; consumers keep buckets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTupleFingerprintOrderSensitive(t *testing.T) {
	a := Tuple{Const("1"), Const("2")}
	b := Tuple{Const("2"), Const("1")}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("want order-sensitive tuple fingerprints (a permutation is a different fact)")
	}
}

func TestUniverseSlots(t *testing.T) {
	x, y, z := Var("ux"), Var("uy"), Var("uz")
	u := NewUniverse([]ID{x, y, x}) // duplicate x ignored
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	if u.Slot(x) != 0 || u.Slot(y) != 1 {
		t.Errorf("slots = %d, %d", u.Slot(x), u.Slot(y))
	}
	if u.Slot(z) != -1 {
		t.Error("absent variable must report slot -1")
	}
}

func TestUniverseRejectsConstants(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("universe over a constant must panic")
		}
	}()
	NewUniverse([]ID{Const("1")})
}

// TestConcurrentInternName has 8 goroutines intern fresh names while 8
// others resolve the IDs the interners hand them. Name reads the
// published table without the intern lock; under -race this checks
// that every handed-out ID resolves, and to its own name.
func TestConcurrentInternName(t *testing.T) {
	const writers, readers, perWriter = 8, 8, 500
	type named struct {
		id   ID
		name string
	}
	anchor := Const("race-3")
	// Buffered so interners run ahead of readers and the two sides overlap
	// in time; the size is otherwise arbitrary.
	ch := make(chan named, 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("race-%d-%d", w, i)
				id := Const(name)
				if i%2 == 1 {
					id = Var(name)
				}
				ch <- named{id, name}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	var rg sync.WaitGroup
	var resolved atomic.Int64
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for n := range ch {
				if got := n.id.Name(); got != n.name {
					t.Errorf("ID %d resolves to %q, want %q", n.id, got, n.name)
				}
				if !n.id.IsVar() && Compare(n.id, anchor) != strings.Compare(n.name, anchor.Name()) {
					t.Errorf("Compare(%q, %q) disagrees with the names", n.name, anchor.Name())
				}
				resolved.Add(1)
			}
		}()
	}
	rg.Wait()
	if got := resolved.Load(); got != writers*perWriter {
		t.Fatalf("resolved %d names, want %d", got, writers*perWriter)
	}
}
