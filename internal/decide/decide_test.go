package decide

import (
	"fmt"
	"math/rand"
	"testing"

	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
	"pw/internal/worlds"
)

func v(n string) sym.ID { return sym.Var(n) }
func k(n string) sym.ID { return sym.Const(n) }

func inst1(vals ...string) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 1)
	for _, x := range vals {
		r.AddRow(x)
	}
	return i
}

// randomDB builds a random single-table database of the requested kind
// flavor: 0=Codd, 1=e-table, 2=i-table, 3=g-table, 4=c-table.
func randomDB(rng *rand.Rand, flavor int, rows int) *table.Database {
	t := table.New("T", 2)
	varPool := []sym.ID{v("x"), v("y"), v("z"), v("w")}
	constPool := []sym.ID{k("1"), k("2"), k("3")}
	nextVar := 0
	pick := func(repeatVarsOK bool) sym.ID {
		if rng.Intn(2) == 0 {
			return constPool[rng.Intn(len(constPool))]
		}
		if repeatVarsOK {
			return varPool[rng.Intn(len(varPool))]
		}
		nextVar++
		return v(fmt.Sprintf("u%d", nextVar))
	}
	repeats := flavor == 1 || flavor == 3 || flavor == 4
	for i := 0; i < rows; i++ {
		row := table.Row{Values: sym.Tuple{pick(repeats), pick(repeats)}}
		if flavor == 4 && rng.Intn(2) == 0 {
			op := cond.Eq
			if rng.Intn(2) == 0 {
				op = cond.Neq
			}
			row.Cond = cond.Conj(cond.Atom{Op: op, L: pick(true), R: pick(true)})
		}
		t.Add(row)
	}
	if flavor == 2 || flavor == 3 || flavor == 4 {
		for i, n := 0, rng.Intn(2)+1; i < n; i++ {
			t.Global = append(t.Global, cond.NeqAtom(pick(true), pick(true)))
		}
	}
	return table.DB(t)
}

// randomInstance2 builds a random arity-2 instance over a tiny domain.
func randomInstance2(rng *rand.Rand, maxFacts int) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 2)
	pool := []string{"1", "2", "3", "4"}
	for n := rng.Intn(maxFacts + 1); n > 0; n-- {
		r.AddRow(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
	}
	return i
}

func TestMembershipCoddPaperExample(t *testing.T) {
	// Fig. 3 of the paper: I0 and T of arity 3.
	tb := table.New("T", 3)
	tb.AddTuple(k("2"), v("x1"), k("1"))   // v1 = 2 x1 1
	tb.AddTuple(v("x2"), k("2"), k("3"))   // v2 = x2 2 3
	tb.AddTuple(v("x3"), v("x4"), v("x5")) // v3 = x3 x4 x5
	tb.AddTuple(k("1"), k("2"), v("x6"))   // v4 = 1 2 x6
	i0 := rel.NewInstance()
	r := i0.EnsureRelation("T", 3)
	r.AddRow("1", "1", "2") // wait: the paper's facts
	_ = r
	// The paper's I0 = {(1,1,2), (3,2,3), (1,4,5), (1,2,3)}; its T as in
	// Fig. 3(a) has rows (x1,1,x2),(x3,2,3),(1,x4,x5),(1,2,x6) — arity 3.
	tb2 := table.New("T", 3)
	tb2.AddTuple(v("x1"), k("1"), v("x2"))
	tb2.AddTuple(v("x3"), k("2"), k("3"))
	tb2.AddTuple(k("1"), v("x4"), v("x5"))
	tb2.AddTuple(k("1"), k("2"), v("x6"))
	i02 := rel.NewInstance()
	r2 := i02.EnsureRelation("T", 3)
	r2.AddRow("1", "1", "2")
	r2.AddRow("3", "2", "3")
	r2.AddRow("1", "4", "5")
	r2.AddRow("1", "2", "3")
	got, err := Options{}.Membership(i02, query.Identity{}, table.DB(tb2))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("the paper's Fig. 3 instance is a member")
	}
	// Removing the fact (1,4,5) leaves row (1,x4,x5) free to map onto
	// (1,1,2) or (1,2,3), so membership still holds; removing instead the
	// fact (3,2,3) strands row (x3,2,3)… it can still map onto (1,2,3).
	// But an instance where some row fits nothing must fail:
	i03 := rel.NewInstance()
	r3 := i03.EnsureRelation("T", 3)
	r3.AddRow("9", "9", "9")
	got, err = Options{}.Membership(i03, query.Identity{}, table.DB(tb2))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("(9,9,9) cannot be produced by any row with constants 1/2/3")
	}
}

func TestMembershipMatchingNeedsAugmenting(t *testing.T) {
	// Row A fits facts {f1,f2}; row B fits only f1: greedy A→f1 starves B…
	// the matching must still cover both facts.
	tb := table.New("T", 2)
	tb.AddTuple(k("1"), v("x")) // fits (1,1) and (1,2)
	tb.AddTuple(k("1"), k("1")) // fits only (1,1)
	i0 := rel.NewInstance()
	r := i0.EnsureRelation("T", 2)
	r.AddRow("1", "1")
	r.AddRow("1", "2")
	got, err := Options{}.Membership(i0, query.Identity{}, table.DB(tb))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("matching should assign x=2")
	}
}

// TestMembershipMatchesBruteForce cross-validates the production solver
// against exhaustive valuation search for every representation kind.
func TestMembershipMatchesBruteForce(t *testing.T) {
	for flavor := 0; flavor <= 4; flavor++ {
		flavor := flavor
		t.Run(fmt.Sprintf("flavor%d", flavor), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + flavor)))
			for trial := 0; trial < 60; trial++ {
				d := randomDB(rng, flavor, 1+rng.Intn(3))
				i0 := randomInstance2(rng, 3)
				want := worlds.Member(i0, d)
				got, err := Options{}.Membership(i0, query.Identity{}, d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d: decide=%v brute=%v\nDB:\n%s\nI0:\n%s",
						trial, got, want, d, i0)
				}
			}
		})
	}
}

// TestUniquenessMatchesBruteForce cross-validates UNIQ.
func TestUniquenessMatchesBruteForce(t *testing.T) {
	for flavor := 0; flavor <= 4; flavor++ {
		flavor := flavor
		t.Run(fmt.Sprintf("flavor%d", flavor), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + flavor)))
			for trial := 0; trial < 60; trial++ {
				d := randomDB(rng, flavor, 1+rng.Intn(2))
				i0 := randomInstance2(rng, 2)
				want := bruteUnique(d, i0)
				got, err := Options{}.Uniqueness(query.Identity{}, d, i0)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d: decide=%v brute=%v\nDB:\n%s\nI0:\n%s",
						trial, got, want, d, i0)
				}
			}
		})
	}
}

func bruteUnique(d *table.Database, i0 *rel.Instance) bool {
	n := 0
	same := true
	worlds.Each(d, valuation.Domain(d, i0), func(w *rel.Instance) bool {
		n++
		if !w.Equal(i0) {
			same = false
			return true
		}
		return false
	})
	return n > 0 && same
}

// canonDomain materializes Δ ∪ Δ′ for enumerating d's valuations: the
// base of delta plus one fresh constant per variable of d.
func canonDomain(delta table.Delta, d *table.Database) []sym.ID {
	return append(delta.Base, table.FreshConsts(delta.Prefix, len(d.VarNames()))...)
}

// TestPossibleMatchesBruteForce cross-validates POSS.
func TestPossibleMatchesBruteForce(t *testing.T) {
	for flavor := 0; flavor <= 4; flavor++ {
		flavor := flavor
		t.Run(fmt.Sprintf("flavor%d", flavor), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + flavor)))
			for trial := 0; trial < 60; trial++ {
				d := randomDB(rng, flavor, 1+rng.Intn(3))
				p := randomInstance2(rng, 2)
				want := worlds.Possible(p, d)
				got, err := Options{}.Possible(p, query.Identity{}, d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d: decide=%v brute=%v\nDB:\n%s\nP:\n%s",
						trial, got, want, d, p)
				}
			}
		})
	}
}

// TestCertainMatchesBruteForce cross-validates CERT.
func TestCertainMatchesBruteForce(t *testing.T) {
	for flavor := 0; flavor <= 4; flavor++ {
		flavor := flavor
		t.Run(fmt.Sprintf("flavor%d", flavor), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(400 + flavor)))
			for trial := 0; trial < 60; trial++ {
				d := randomDB(rng, flavor, 1+rng.Intn(3))
				p := randomInstance2(rng, 2)
				want := worlds.Certain(p, d)
				got, err := Options{}.Certain(p, query.Identity{}, d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d: decide=%v brute=%v\nDB:\n%s\nP:\n%s",
						trial, got, want, d, p)
				}
			}
		})
	}
}

// TestContainmentMatchesBruteForce cross-validates CONT on pairs of random
// databases of all kind combinations.
func TestContainmentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for trial := 0; trial < 120; trial++ {
		f0, f := rng.Intn(5), rng.Intn(5)
		d0 := randomDB(rng, f0, 1+rng.Intn(2))
		d := randomDB(rng, f, 1+rng.Intn(2))
		want := bruteContained(d0, d)
		got, err := Options{}.Containment(query.Identity{}, d0, query.Identity{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d (kinds %v⊆%v): decide=%v brute=%v\nD0:\n%s\nD:\n%s",
				trial, d0.Kind(), d.Kind(), got, want, d0, d)
		}
	}
}

func bruteContained(d0, d *table.Database) bool {
	// Enumerate d0's worlds over the *combined* constant pool and test
	// each for brute membership in rep(d).
	cs := canonDomain(table.NewDelta(nil, []*table.Database{d0, d}), d0)
	contained := true
	worlds.Each(d0, cs, func(w *rel.Instance) bool {
		if !worlds.Member(w, d) {
			contained = false
			return true
		}
		return false
	})
	return contained
}

func TestContainmentUnsatisfiableSubset(t *testing.T) {
	t0 := table.New("T", 1)
	t0.Global = cond.Conj(cond.NeqAtom(v("x"), v("x")))
	t0.AddTuple(v("x"))
	d := randomDB(rand.New(rand.NewSource(1)), 0, 2)
	got, err := Options{}.Containment(query.Identity{}, table.DB(t0), query.Identity{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("the empty set is contained in everything")
	}
}

func TestFreezeContainmentDirections(t *testing.T) {
	// Subset: Codd table {(x)} — represents all singletons and more.
	// Superset: e-table {(y),(y)} — same as {(y)}: all singletons.
	t0 := table.New("T", 1)
	t0.AddTuple(v("x"))
	tS := table.New("T", 1)
	tS.AddTuple(v("y"))
	got, err := Options{}.Containment(query.Identity{}, table.DB(t0), query.Identity{}, table.DB(tS))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("{(x)} ⊆ {(y)} must hold")
	}
	// Superset ground {(1)}: containment must fail ({(2)} escapes).
	tg := table.New("T", 1)
	tg.AddTuple(k("1"))
	got, err = Options{}.Containment(query.Identity{}, table.DB(t0), query.Identity{}, table.DB(tg))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("{(x)} ⊄ {(1)}")
	}
}

func TestContainmentNeedsSupersetConstants(t *testing.T) {
	// Regression for the Δ bug: d0 = {(y)} (no constants), d = i-table
	// {(x)} with x≠1. The world {(1)} of d0 is not in rep(d), so
	// containment must fail even though d0 alone mentions no constants.
	t0 := table.New("T", 1)
	t0.AddTuple(v("y"))
	ti := table.New("T", 1)
	ti.Global = cond.Conj(cond.NeqAtom(v("x"), k("1")))
	ti.AddTuple(v("x"))
	got, err := Options{}.Containment(query.Identity{}, table.DB(t0), query.Identity{}, table.DB(ti))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("containment must fail: {(1)} ∈ rep(d0) but ∉ rep(d)")
	}
}

func TestUniquenessGTableFastPath(t *testing.T) {
	// Theorem 3.2(1): g-table forced ground by its equalities. The
	// identity query's uniqueness takes the fast path (no local
	// conditions: compare the normalized matrix, no search).
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.EqAtom(v("x"), k("1")))
	tb.AddTuple(v("x"))
	ok, err := Options{}.Uniqueness(query.Identity{}, table.DB(tb), inst1("1"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("x=1 forces the unique instance {(1)}")
	}
	ok, err = Options{}.Uniqueness(query.Identity{}, table.DB(tb), inst1("2"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("{(2)} is not represented")
	}
	// Unbound variable: never unique.
	tb2 := table.New("T", 1)
	tb2.AddTuple(v("x"))
	ok, err = Options{}.Uniqueness(query.Identity{}, table.DB(tb2), inst1("1"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a free variable admits many instances")
	}
}

func TestSchemaCheckErrors(t *testing.T) {
	d := randomDB(rand.New(rand.NewSource(2)), 0, 1)
	bad := rel.NewInstance()
	bad.EnsureRelation("Other", 2)
	if _, err := (Options{}).Membership(bad, query.Identity{}, d); err == nil {
		t.Error("schema mismatch must error")
	}
	bad2 := rel.NewInstance()
	bad2.EnsureRelation("T", 3)
	if _, err := (Options{}).Membership(bad2, query.Identity{}, d); err == nil {
		t.Error("arity mismatch must error")
	}
	badP := rel.NewInstance()
	badP.EnsureRelation("Nope", 1).AddRow("1")
	if _, err := (Options{}).Possible(badP, query.Identity{}, d); err == nil {
		t.Error("possibility fact set naming unknown relation must error")
	}
}

func TestCertainFactAndPossibleFact(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), k("2")))
	tb.AddTuple(v("x"))
	tb.AddTuple(k("1"))
	d := table.DB(tb)
	c, err := Options{}.CertainFact("T", rel.Fact{"1"}, query.Identity{}, d)
	if err != nil || !c {
		t.Errorf("(1) must be certain: %v %v", c, err)
	}
	c, err = Options{}.CertainFact("T", rel.Fact{"3"}, query.Identity{}, d)
	if err != nil || c {
		t.Errorf("(3) must not be certain: %v %v", c, err)
	}
	p, err := Options{}.PossibleFact("T", rel.Fact{"3"}, query.Identity{}, d)
	if err != nil || !p {
		t.Errorf("(3) must be possible: %v %v", p, err)
	}
	p, err = Options{}.PossibleFact("T", rel.Fact{"2"}, query.Identity{}, d)
	if err != nil || p {
		t.Errorf("(2) must be impossible: %v %v", p, err)
	}
}

func TestCertainOnEmptyRep(t *testing.T) {
	tb := table.New("T", 1)
	tb.Global = cond.Conj(cond.NeqAtom(v("x"), v("x")))
	tb.AddTuple(v("x"))
	got, err := Options{}.Certain(inst1("anything"), query.Identity{}, table.DB(tb))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("certainty over the empty set of worlds is vacuous truth")
	}
}
