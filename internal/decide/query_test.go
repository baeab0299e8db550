package decide

import (
	"math/rand"
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

// bruteViewDomain mirrors the deciders' Δ for view problems.
func bruteViewDomain(d *table.Database, q query.Query, extra *rel.Instance) []sym.ID {
	base, prefix := genericDomain(d, q, extra)
	vars := d.VarNames()
	out := append([]sym.ID(nil), base...)
	for i := range vars {
		out = append(out, sym.Const(prefix+itoa10(i)))
	}
	return out
}

func itoa10(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
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
		base, prefix := genericDomain(d, nil, i0)
		full := bruteViewDomain(d, nil, i0)
		gotCanonical := false
		valuation.EnumerateCanonical(d.Universe(), base, prefix, func(v valuation.V) bool {
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
