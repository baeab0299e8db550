package rep_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/worlds"
	"pw/internal/wsd"
)

// condOnly generates a c-table database over T(1) whose variables occur
// only in local conditions (no nulls in rows): its world set is finite,
// so wsd.ToWSD compiles it exactly.
func condOnly(seed int64) *table.Database {
	return table.DB(gen.CTable(seed, "T", 1+int(seed)%3, 1, 3, 2, 0, 0.7))
}

// pair returns the two representations of one condition-only database:
// the tables and their compiled decomposition.
func pair(t *testing.T, d *table.Database) [2]rep.DB {
	t.Helper()
	w, err := wsd.ToWSD(d)
	if err != nil {
		t.Fatalf("ToWSD(%v): %v", d, err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	return [2]rep.DB{{Tab: d}, {WSD: w}}
}

// worldKeys is the explicit world set of d over the canonical domain.
func worldKeys(d *table.Database) map[string]bool {
	keys := map[string]bool{}
	for _, w := range worlds.All(d) {
		keys[w.Key()] = true
	}
	return keys
}

// TestContainsAgreesAcrossPairings: for pairs of condition-only table
// databases, CONT answers the same on all four pairings of {tables,
// compiled decomposition} × {tables, compiled decomposition} — the
// decision engine, the compile-then-contain fallback on either side,
// and the native containment — and matches the explicit world sets.
func TestContainsAgreesAcrossPairings(t *testing.T) {
	o := decide.Options{Workers: 1}
	id := query.Identity{}
	const n = 12
	dbs := make([]*table.Database, n)
	reps := make([][2]rep.DB, n)
	keys := make([]map[string]bool, n)
	for i := range dbs {
		dbs[i] = condOnly(int64(i + 1))
		reps[i] = pair(t, dbs[i])
		keys[i] = worldKeys(dbs[i])
	}
	answers := map[bool]int{}
	for i := range dbs {
		for j := range dbs {
			want := true
			for k := range keys[i] {
				want = want && keys[j][k]
			}
			answers[want]++
			for _, sub := range reps[i] {
				for _, sup := range reps[j] {
					got, err := rep.Contains(o, id, sub, id, sup)
					if err != nil {
						t.Fatalf("db %d ⊆ db %d (sub native %v, sup native %v): %v", i, j, sub.Native(), sup.Native(), err)
					}
					if got != want {
						t.Fatalf("db %d ⊆ db %d (sub native %v, sup native %v) = %v, explicit worlds say %v\nsub: %v\nsup: %v",
							i, j, sub.Native(), sup.Native(), got, want, dbs[i], dbs[j])
					}
				}
			}
		}
	}
	t.Logf("%d pairs contained, %d not", answers[true], answers[false])
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("generated pairs answer only one way: %v", answers)
	}
}

// TestInfiniteSubsetAgainstFiniteSuperset: a table subset whose rep is
// infinite (a variable in a row) is "no" against a finite decomposition
// under the identity query, as against finite tables; as the superset
// side it cannot be compiled, and the error says which side failed.
func TestInfiniteSubsetAgainstFiniteSuperset(t *testing.T) {
	o := decide.Options{Workers: 1}
	id := query.Identity{}
	inf := table.New("T", 1)
	inf.AddTuple(sym.Var("x"))
	infinite := rep.DB{Tab: table.DB(inf)}
	for seed := int64(1); seed <= 6; seed++ {
		finite := pair(t, condOnly(seed))
		for _, sup := range finite {
			got, err := rep.Contains(o, id, infinite, id, sup)
			if err != nil || got {
				t.Fatalf("seed %d: infinite ⊆ finite (native %v) = %v, %v; want no", seed, sup.Native(), got, err)
			}
		}
		_, err := rep.Contains(o, id, finite[1], id, infinite)
		if !errors.Is(err, wsd.ErrInfiniteRep) || !strings.HasPrefix(err.Error(), "superset side: ") {
			t.Fatalf("seed %d: finite decomposition ⊆ infinite tables: error %v, want a superset-side ErrInfiniteRep", seed, err)
		}
	}
	// Under a query the subset's image may be finite, so the fallback
	// reports the compile failure instead of answering.
	q := query.NewAlgebra("q", query.Out{Name: "Q", Expr: algebra.Scan("T", "a")})
	if _, err := rep.Contains(o, q, infinite, id, pair(t, condOnly(1))[1]); !errors.Is(err, wsd.ErrInfiniteRep) {
		t.Fatalf("infinite tables under a query ⊆ decomposition: error %v, want ErrInfiniteRep", err)
	}
}

// factProbes returns one single-fact instance per fact of the worlds,
// plus one fact no world holds.
func factProbes(ws []*rel.Instance) []*rel.Instance {
	seen := map[string]bool{}
	var out []*rel.Instance
	add := func(f rel.Fact) {
		if seen[f.Key()] {
			return
		}
		seen[f.Key()] = true
		i := rel.NewInstance()
		i.AddRelation(rel.NewRelation("T", 1)).Add(f)
		out = append(out, i)
	}
	for _, w := range ws {
		for _, f := range w.Relation("T").Facts() {
			add(f)
		}
	}
	add(rel.Fact{"absent"})
	return out
}

// TestRecordAgreesAcrossBackends: the tables and the compiled
// decomposition of one condition-only database denote the same world
// set, so every problem the record answers comes out the same on both.
func TestRecordAgreesAcrossBackends(t *testing.T) {
	o := decide.Options{Workers: 1}
	for seed := int64(1); seed <= 24; seed++ {
		d := condOnly(seed)
		both := pair(t, d)
		ws := worlds.All(d)
		if got, want := both[1].Count(o), both[0].Count(o); got != want {
			t.Fatalf("seed %d: decomposition counts %s worlds, tables %s", seed, got, want)
		}
		for _, p := range append(ws, factProbes(ws)...) {
			for name, problem := range map[string]func(rep.DB) (bool, error){
				"memb": func(r rep.DB) (bool, error) { return r.Member(o, p) },
				"uniq": func(r rep.DB) (bool, error) { return r.Unique(o, p) },
				"poss": func(r rep.DB) (bool, error) { return r.Possible(o, p) },
				"cert": func(r rep.DB) (bool, error) { return r.Certain(o, p) },
			} {
				a, errA := problem(both[0])
				b, errB := problem(both[1])
				if errA != nil || errB != nil || a != b {
					t.Fatalf("seed %d: %s %v on tables = %v, %v; on the decomposition %v, %v", seed, name, p, a, errA, b, errB)
				}
			}
		}
		for _, possible := range []bool{true, false} {
			a, errA := both[0].Answers(o, query.Identity{}, possible)
			b, errB := both[1].Answers(o, query.Identity{}, possible)
			if errA != nil || errB != nil || !a.Equal(b) {
				t.Fatalf("seed %d: answers (possible %v) on tables %v, %v; on the decomposition %v, %v", seed, possible, a, errA, b, errB)
			}
		}
		if len(ws) == 0 {
			continue
		}
		keys, rng := worldKeys(d), rand.New(rand.NewSource(seed))
		for _, r := range both {
			for k := 0; k < 3; k++ {
				s, err := r.Sample(rng, seed, k)
				if err != nil {
					continue // a table search may miss; a miss is not a wrong answer
				}
				if !keys[s.Key()] {
					t.Fatalf("seed %d: sample %v (native %v) is not a world", seed, s, r.Native())
				}
			}
		}
	}
}

// TestEmptyWorldSet: with no world to draw, each backend's sample fails
// with its own message, and the count is zero.
func TestEmptyWorldSet(t *testing.T) {
	tb := table.New("T", 1)
	tb.AddTuple(sym.Const("a"))
	tb.Global = append(tb.Global, cond.NeqAtom(sym.Var("x"), sym.Var("x")))
	both := pair(t, table.DB(tb))
	for _, r := range both {
		if c := r.Count(decide.Options{Workers: 1}); c != "0" {
			t.Errorf("native %v: count %s, want 0", r.Native(), c)
		}
	}
	if _, err := both[1].Sample(rand.New(rand.NewSource(1)), 1, 0); err == nil || !strings.Contains(err.Error(), "empty world set") {
		t.Errorf("decomposition sample error %v, want the empty-world-set message", err)
	}
	if _, err := both[0].Sample(rand.New(rand.NewSource(1)), 1, 0); err == nil || !strings.Contains(err.Error(), "try a different seed") {
		t.Errorf("table sample error %v, want the sampling-budget message", err)
	}
}

// TestKind: tables, tuple-level and attribute-level decompositions.
func TestKind(t *testing.T) {
	tuple := pair(t, condOnly(1))
	attr := wsd.New(table.Schema{{Name: "T", Arity: 2}})
	if err := attr.AddTemplateComponent("T", []string{"a"}, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := attr.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r             rep.DB
		backend, kind string
	}{
		{tuple[0], "table", "table"},
		{tuple[1], "wsd", "tuple"},
		{rep.DB{WSD: attr}, "wsd", "attr"},
	} {
		if b, k := c.r.Kind(); b != c.backend || k != c.kind {
			t.Errorf("Kind = %s/%s, want %s/%s", b, k, c.backend, c.kind)
		}
	}
}
