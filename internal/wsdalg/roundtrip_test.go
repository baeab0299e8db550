// Satellite coverage for wsd.Normalize round-trips through wsdalg
// operators: identity-shaped queries must preserve Count exactly (the
// answer bijects with the input world set), and the counting-argument
// factorizer must keep XOR-pattern components atomic after evaluation —
// a pairwise-independent but jointly dependent alternative family must
// not be split by the re-normalization of the answer.
package wsdalg

import (
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsd"
)

// identityShaped builds algebra queries that are semantically the
// identity on a single-relation schema R/arity: a full scan, a
// projection onto all columns, and a tautological selection. Output is
// named R so the answer instance equals the input world.
func identityShaped(arity int) []query.Algebra {
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	scan := algebra.Scan("R", cols...)
	out := []query.Algebra{
		query.NewAlgebra("scan", query.Out{Name: "R", Expr: scan}),
		query.NewAlgebra("project-all", query.Out{Name: "R", Expr: algebra.Project{E: scan, Cols: cols}}),
	}
	if arity > 0 {
		out = append(out, query.NewAlgebra("select-true",
			query.Out{Name: "R", Expr: algebra.Where(scan, algebra.EqP(algebra.Col(cols[0]), algebra.Col(cols[0])))}))
	}
	return out
}

// TestCountPreservedByIdentityOperators: on seeded random
// decompositions, selection/projection identities leave Count — and the
// normalized component structure — unchanged.
func TestCountPreservedByIdentityOperators(t *testing.T) {
	const arity = 2
	for seed := int64(1); seed <= 40; seed++ {
		w, err := gen.RandomWSD(seed, 3+int(seed)%3, 3, arity, 5+int(seed)%3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, q := range identityShaped(arity) {
			got, err := apply(w, q)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, q.Label(), err)
			}
			if got.Count().Cmp(w.Count()) != 0 {
				t.Errorf("seed %d %s: Count %s, want %s", seed, q.Label(), got.Count(), w.Count())
			}
			// The identity answer normalizes to the identical printed
			// decomposition: same components, alternatives, facts.
			if got.String() != w.String() {
				t.Errorf("seed %d %s: normalized answer drifted from input:\n%s\nvs\n%s",
					seed, q.Label(), got.String(), w.String())
			}
		}
	}
}

// TestXORComponentStaysAtomic: the jointly-dependent-but-pairwise-
// independent family {∅, {a,b}, {a,c}, {b,c}} must survive evaluation
// as one 4-alternative component — splitting it would misrepresent the
// world set, and only the verified counting argument prevents that.
func TestXORComponentStaysAtomic(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 1}})
	err := w.AddComponent(
		alt(),
		alt(f("R", "a"), f("R", "b")),
		alt(f("R", "a"), f("R", "c")),
		alt(f("R", "b"), f("R", "c")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	if w.Components() != 1 || w.AltCount(0) != 4 {
		t.Fatalf("setup: XOR family must normalize to one 4-alt component, got %d comps %v",
			w.Components(), w.Alternatives())
	}
	for _, q := range identityShaped(1) {
		got := checkEval(t, w, q)
		if got.Components() != 1 || got.AltCount(0) != 4 {
			t.Errorf("%s: XOR component split by evaluation: %d comps, alts %v",
				q.Label(), got.Components(), got.Alternatives())
		}
	}
	// A genuine projection on a wider XOR layout must still verify its
	// splits: pad each fact with a second column, project it away, and
	// the collapsed answer has to keep exact counting.
	w2 := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	err = w2.AddComponent(
		alt(),
		alt(f("R", "a", "p"), f("R", "b", "p")),
		alt(f("R", "a", "q"), f("R", "c", "p")),
		alt(f("R", "b", "q"), f("R", "c", "q")),
	)
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewAlgebra("drop-tag", query.Out{Name: "A",
		Expr: algebra.Project{E: algebra.Scan("R", "x", "tag"), Cols: []string{"x"}}})
	checkEval(t, w2, q)
}

// TestNormalizeRoundTripThroughUnion: re-uniting a relation with itself
// is the identity; the answer must re-normalize to the input structure.
func TestNormalizeRoundTripThroughUnion(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		w, err := gen.RandomWSD(seed, 3, 3, 2, 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scan := algebra.Scan("R", "x", "y")
		q := query.NewAlgebra("self-union", query.Out{Name: "R", Expr: algebra.Union{L: scan, R: scan}})
		got, err := apply(w, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.String() != w.String() {
			t.Errorf("seed %d: R ∪ R drifted from R:\n%s\nvs\n%s", seed, got.String(), w.String())
		}
	}
}
