package decide

import (
	"math/rand"
	"strconv"
	"testing"

	"pw/internal/algebra"
	"pw/internal/datalog"
	"pw/internal/fo"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
	"pw/internal/value"
	"pw/internal/worlds"
)

// Query-parameterised cross-validation: the dispatched deciders must agree
// with brute-force world enumeration composed with ordinary query
// evaluation, for positive existential (liftable), FO and DATALOG queries.

// projQuery is π[a](σ[a=b] T) — a liftable positive existential query.
func projQuery() query.Query {
	return query.NewAlgebra("proj",
		query.Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("T", "a", "b"), algebra.EqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
}

// neqQuery is π[a](σ[a≠b] T) — liftable but not positive.
func neqQuery() query.Query {
	return query.NewAlgebra("neq",
		query.Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("T", "a", "b"), algebra.NeqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
}

// foQuery is {w | ∃a,b T(a,b) ∧ ¬T(b,a) ∧ w=1} — genuinely first order.
func foQuery() query.Query {
	va := value.Var
	return query.NewFO("asym", query.FOOut{Name: "Q", Q: fo.Query{
		Head: []string{"w"},
		Body: fo.And{
			fo.Equal(va("w"), value.Const("1")),
			fo.Exists{Vars: []string{"a", "b"}, F: fo.And{
				fo.At("T", va("a"), va("b")),
				fo.Not{F: fo.At("T", va("b"), va("a"))},
			}},
		},
	}})
}

// dlQuery is transitive closure — DATALOG.
func dlQuery() query.Query {
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("Q", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("x"), value.Var("y"))),
		datalog.R(datalog.At("Q", value.Var("x"), value.Var("z")),
			datalog.At("Q", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("y"), value.Var("z"))),
	}}
	return query.NewDatalog("tc", prog, "Q")
}

// viewDelta is the deciders' Δ for a view problem (a nil q mentions no
// constants).
func viewDelta(d *table.Database, q query.Query, extra *rel.Instance) table.Delta {
	var qc []string
	if q != nil {
		qc = q.Consts()
	}
	return table.NewDelta(qc, []*table.Database{d}, extra)
}

// bruteViewDomain materializes the deciders' Δ ∪ Δ′ for view problems.
func bruteViewDomain(d *table.Database, q query.Query, extra *rel.Instance) []sym.ID {
	return canonDomain(viewDelta(d, q, extra), d)
}

func bruteMembView(i0 *rel.Instance, q query.Query, d *table.Database) bool {
	dom := bruteViewDomain(d, q, i0)
	found := false
	worlds.Each(d, dom, func(w *rel.Instance) bool {
		out, err := q.Eval(w)
		if err != nil {
			panic(err)
		}
		if out.Equal(i0) {
			found = true
			return true
		}
		return false
	})
	return found
}

func brutePossView(p *rel.Instance, q query.Query, d *table.Database) bool {
	dom := bruteViewDomain(d, q, p)
	found := false
	worlds.Each(d, dom, func(w *rel.Instance) bool {
		out, err := q.Eval(w)
		if err != nil {
			panic(err)
		}
		if p.SubsetOf(out) {
			found = true
			return true
		}
		return false
	})
	return found
}

func bruteCertView(p *rel.Instance, q query.Query, d *table.Database) bool {
	dom := bruteViewDomain(d, q, p)
	ok := true
	worlds.Each(d, dom, func(w *rel.Instance) bool {
		out, err := q.Eval(w)
		if err != nil {
			panic(err)
		}
		if !p.SubsetOf(out) {
			ok = false
			return true
		}
		return false
	})
	return ok
}

func randomOutInstance(rng *rand.Rand, arity, maxFacts int) *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("Q", arity)
	pool := []string{"1", "2", "3"}
	for n := rng.Intn(maxFacts + 1); n > 0; n-- {
		f := make(rel.Fact, arity)
		for j := range f {
			f[j] = pool[rng.Intn(len(pool))]
		}
		r.Add(f)
	}
	return i
}

func TestMembershipWithQueriesMatchesBruteForce(t *testing.T) {
	queries := []query.Query{projQuery(), neqQuery(), foQuery()}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(700 + qi)))
		for trial := 0; trial < 25; trial++ {
			d := randomDB(rng, rng.Intn(5), 1+rng.Intn(2))
			i0 := randomOutInstance(rng, outArity(q), 2)
			want := bruteMembView(i0, q, d)
			got, err := Options{}.Membership(i0, q, d)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("query %s trial %d: decide=%v brute=%v\nDB:\n%s\nI0:\n%s",
					q.Label(), trial, got, want, d, i0)
			}
		}
	}
}

func outArity(q query.Query) int {
	if q.Label() == "tc" {
		return 2
	}
	return 1
}

func TestPossCertWithQueriesMatchesBruteForce(t *testing.T) {
	queries := []query.Query{projQuery(), neqQuery(), foQuery(), dlQuery()}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(800 + qi)))
		for trial := 0; trial < 20; trial++ {
			d := randomDB(rng, rng.Intn(5), 1+rng.Intn(2))
			p := randomOutInstance(rng, outArity(q), 1)
			wantP := brutePossView(p, q, d)
			gotP, err := Options{}.Possible(p, q, d)
			if err != nil {
				t.Fatal(err)
			}
			if gotP != wantP {
				t.Fatalf("POSS %s trial %d: decide=%v brute=%v\nDB:\n%s\nP:\n%s",
					q.Label(), trial, gotP, wantP, d, p)
			}
			wantC := bruteCertView(p, q, d)
			gotC, err := Options{}.Certain(p, q, d)
			if err != nil {
				t.Fatal(err)
			}
			if gotC != wantC {
				t.Fatalf("CERT %s trial %d: decide=%v brute=%v\nDB:\n%s\nP:\n%s",
					q.Label(), trial, gotC, wantC, d, p)
			}
		}
	}
}

func TestUniquenessWithQueriesMatchesBruteForce(t *testing.T) {
	queries := []query.Query{projQuery(), neqQuery(), foQuery()}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(900 + qi)))
		for trial := 0; trial < 20; trial++ {
			d := randomDB(rng, rng.Intn(5), 1+rng.Intn(2))
			i0 := randomOutInstance(rng, outArity(q), 1)
			dom := bruteViewDomain(d, q, i0)
			n, same := 0, true
			worlds.Each(d, dom, func(w *rel.Instance) bool {
				out, err := q.Eval(w)
				if err != nil {
					panic(err)
				}
				n++
				if !out.Equal(i0) {
					same = false
					return true
				}
				return false
			})
			want := n > 0 && same
			got, err := Options{}.Uniqueness(q, d, i0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("UNIQ %s trial %d: decide=%v brute=%v\nDB:\n%s\nI:\n%s",
					q.Label(), trial, got, want, d, i0)
			}
		}
	}
}

// TestCertainFrozenAgainstEnumerated pins Theorem 5.3(1): the frozen path
// (datalog on g-tables) must agree with world enumeration.
func TestCertainFrozenAgainstEnumerated(t *testing.T) {
	q := dlQuery()
	rng := rand.New(rand.NewSource(1000))
	for trial := 0; trial < 25; trial++ {
		// g-table flavors only (no local conditions): 0..3.
		d := randomDB(rng, rng.Intn(4), 1+rng.Intn(3))
		p := randomOutInstance(rng, 2, 1)
		want := bruteCertView(p, q, d)
		got, err := Options{}.Certain(p, q, d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: frozen=%v brute=%v\nDB:\n%s\nP:\n%s",
				trial, got, want, d, p)
		}
	}
}

// TestEnumerateCanonicalCoversMembership: canonical enumeration must not
// lose witnesses relative to full enumeration.
func TestEnumerateCanonicalCoversMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(1100))
	for trial := 0; trial < 40; trial++ {
		d := randomDB(rng, 4, 1+rng.Intn(2))
		i0 := randomInstance2(rng, 2)
		delta := viewDelta(d, nil, i0)
		full := bruteViewDomain(d, nil, i0)
		gotCanonical := false
		valuation.EnumerateCanonical(d.Universe(), delta.Base, delta.Prefix, func(v valuation.V) bool {
			w := v.Database(d)
			if w != nil && w.Equal(i0) {
				gotCanonical = true
				return true
			}
			return false
		})
		gotFull := valuation.Enumerate(d.Universe(), full, func(v valuation.V) bool {
			w := v.Database(d)
			return w != nil && w.Equal(i0)
		})
		if gotCanonical != gotFull {
			t.Fatalf("trial %d: canonical=%v full=%v\nDB:\n%s\nI0:\n%s",
				trial, gotCanonical, gotFull, d, i0)
		}
	}
}

// zQueries mention the constant ~z0, the first name the fresh-constant
// prefix "~z" would mint. Q(1) holds in a world when T has a row whose
// first cell lies outside {1, 2, 3, ~z0} (outside) or when none has
// (inside): deciding either needs a value that is neither an input
// constant nor ~z0, so the search's fresh constants must avoid the
// query's constants too.
func zQueries() []query.Query {
	va, z := value.Var, value.Const("~z0")
	outside := fo.Exists{Vars: []string{"a", "b"}, F: fo.And{
		fo.At("T", va("a"), va("b")),
		fo.Neq(va("a"), z),
		fo.Neq(va("a"), value.Const("1")),
		fo.Neq(va("a"), value.Const("2")),
		fo.Neq(va("a"), value.Const("3")),
	}}
	one := fo.Equal(va("w"), value.Const("1"))
	return []query.Query{
		query.NewFO("outside", query.FOOut{Name: "Q", Q: fo.Query{Head: []string{"w"}, Body: fo.And{one, outside}}}),
		query.NewFO("inside", query.FOOut{Name: "Q", Q: fo.Query{Head: []string{"w"}, Body: fo.And{one, fo.Not{F: outside}}}}),
	}
}

// oracleDomain spells Δ ∪ Δ′ out by hand, independently of table.NewDelta:
// the constants of d, extra and q, plus one constant per variable of d
// named "~o0", "~o1", …, which no input of these tests mentions.
func oracleDomain(d *table.Database, q query.Query, extra *rel.Instance) []sym.ID {
	seen := map[sym.ID]bool{}
	dom := d.ConstIDs(nil, seen)
	dom = extra.ConstIDs(dom, seen)
	for _, c := range q.Consts() {
		if id := sym.Const(c); !seen[id] {
			seen[id] = true
			dom = append(dom, id)
		}
	}
	for i := range d.VarNames() {
		dom = append(dom, sym.Const("~o"+strconv.Itoa(i)))
	}
	return dom
}

// TestGenericCellsAvoidQueryConstants: MEMB, POSS and CERT of an FO query
// mentioning ~z0 agree with the worlds oracle, on T = {(?x, 1)} — where
// Q(1) is possible for outside and not certain for inside only through
// a constant outside {1, 2, 3, ~z0} — and on random tables.
func TestGenericCellsAvoidQueryConstants(t *testing.T) {
	fixed := table.New("T", 2)
	fixed.AddTuple(v("x"), k("1"))
	dbs := []*table.Database{table.DB(fixed)}
	rng := rand.New(rand.NewSource(1200))
	for trial := 0; trial < 20; trial++ {
		dbs = append(dbs, randomDB(rng, rng.Intn(5), 1+rng.Intn(2)))
	}
	q1 := rel.NewInstance()
	q1.EnsureRelation("Q", 1).AddRow("1")
	for _, q := range zQueries() {
		for di, d := range dbs {
			memb, poss, cert := false, false, true
			worlds.Each(d, oracleDomain(d, q, q1), func(w *rel.Instance) bool {
				out, err := q.Eval(w)
				if err != nil {
					t.Fatal(err)
				}
				memb = memb || out.Equal(q1)
				poss = poss || q1.SubsetOf(out)
				cert = cert && q1.SubsetOf(out)
				return false
			})
			if di == 0 && (!poss || cert) {
				t.Fatalf("%s on T = {(?x, 1)}: oracle poss=%v cert=%v, want true false", q.Label(), poss, cert)
			}
			for _, o := range []Options{{Workers: 1}, {Workers: 4}} {
				for _, c := range []struct {
					name string
					want bool
					run  func() (bool, error)
				}{
					{"MEMB", memb, func() (bool, error) { return o.Membership(q1, q, d) }},
					{"POSS", poss, func() (bool, error) { return o.Possible(q1, q, d) }},
					{"CERT", cert, func() (bool, error) { return o.Certain(q1, q, d) }},
				} {
					got, err := c.run()
					if err != nil {
						t.Fatal(err)
					}
					if got != c.want {
						t.Fatalf("%s %s db %d workers %d: decide=%v oracle=%v\nDB:\n%s",
							c.name, q.Label(), di, o.Workers, got, c.want, d)
					}
				}
			}
		}
	}
}
