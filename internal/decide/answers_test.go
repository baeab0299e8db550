package decide

import (
	"math/rand"
	"testing"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/worlds"
)

// bruteCertainAnswers intersects q over every world of the canonical
// domain, then drops facts mentioning fresh (non-input) constants: a fact
// with a fresh constant cannot be certain — by genericity some isomorphic
// world replaces that constant — even though it survives the intersection
// over the restricted canonical domain.
func bruteCertainAnswers(q query.Query, d *table.Database) *rel.Instance {
	dom := bruteViewDomain(d, q, nil)
	allowed := map[string]bool{}
	for _, c := range d.ConstNames() {
		allowed[c] = true
	}
	for _, c := range q.Consts() {
		allowed[c] = true
	}
	var acc *rel.Instance
	worlds.Each(d, dom, func(w *rel.Instance) bool {
		out, err := q.Eval(w)
		if err != nil {
			panic(err)
		}
		if acc == nil {
			acc = rel.NewInstance()
			for _, r := range out.Relations() {
				keep := rel.NewRelation(r.Name, r.Arity)
			first:
				for _, f := range r.Facts() {
					for _, c := range f {
						if !allowed[c] {
							continue first
						}
					}
					keep.Add(f)
				}
				acc.AddRelation(keep)
			}
			return false
		}
		for _, r := range acc.Relations() {
			keep := rel.NewRelation(r.Name, r.Arity)
			other := out.Relation(r.Name)
			for _, f := range r.Facts() {
				if other != nil && other.Has(f) {
					keep.Add(f)
				}
			}
			*r = *keep
		}
		return false
	})
	return acc
}

func TestCertainAnswersMatchesBruteForce(t *testing.T) {
	queries := []query.Query{query.Identity{}, projQuery(), neqQuery()}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(1200 + qi)))
		for trial := 0; trial < 30; trial++ {
			d := randomDB(rng, rng.Intn(5), 1+rng.Intn(3))
			got, err := Options{}.CertainAnswers(q, d)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteCertainAnswers(q, d)
			if want == nil {
				// No worlds: CertainAnswers returns the empty shape.
				if got.Size() != 0 {
					t.Fatalf("query %s trial %d: expected empty answers for empty rep, got %v",
						q.Label(), trial, got)
				}
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("query %s trial %d:\n got %v\nwant %v\nDB:\n%s",
					q.Label(), trial, got, want, d)
			}
		}
	}
}

func TestCertainAnswersRequiresLiftable(t *testing.T) {
	d := randomDB(rand.New(rand.NewSource(1)), 0, 2)
	if _, err := (Options{}).CertainAnswers(foQuery(), d); err == nil {
		t.Error("first-order queries must be rejected")
	}
}

// brutePossibleAnswers unions q over every world of the canonical
// domain, then drops facts mentioning fresh (non-input) constants — the
// same domain restriction PossibleAnswers documents (facts over fresh
// constants are possible in unboundedly many variants and are not part
// of the canonical answer set). Returns nil when rep(d) = ∅.
func brutePossibleAnswers(q query.Query, d *table.Database) *rel.Instance {
	dom := bruteViewDomain(d, q, nil)
	allowed := map[string]bool{}
	for _, c := range d.ConstNames() {
		allowed[c] = true
	}
	for _, c := range q.Consts() {
		allowed[c] = true
	}
	var acc *rel.Instance
	worlds.Each(d, dom, func(w *rel.Instance) bool {
		out, err := q.Eval(w)
		if err != nil {
			panic(err)
		}
		if acc == nil {
			acc = rel.NewInstance()
		}
		for _, r := range out.Relations() {
			keep := acc.EnsureRelation(r.Name, r.Arity)
		facts:
			for _, f := range r.Facts() {
				for _, c := range f {
					if !allowed[c] {
						continue facts
					}
				}
				keep.Add(f)
			}
		}
		return false
	})
	return acc
}

func TestPossibleAnswersMatchesBruteForce(t *testing.T) {
	queries := []query.Query{query.Identity{}, projQuery(), neqQuery()}
	for qi, q := range queries {
		rng := rand.New(rand.NewSource(int64(3400 + qi)))
		for trial := 0; trial < 30; trial++ {
			d := randomDB(rng, rng.Intn(5), 1+rng.Intn(3))
			got, err := Options{}.PossibleAnswers(q, d)
			if err != nil {
				t.Fatal(err)
			}
			want := brutePossibleAnswers(q, d)
			if want == nil {
				if got.Size() != 0 {
					t.Fatalf("query %s trial %d: expected empty answers for empty rep, got %v",
						q.Label(), trial, got)
				}
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("query %s trial %d:\n got %v\nwant %v\nDB:\n%s",
					q.Label(), trial, got, want, d)
			}
		}
	}
}

func TestPossibleAnswersStableAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := randomDB(rng, rng.Intn(5), 1+rng.Intn(3))
		var want *rel.Instance
		for _, w := range []int{1, 2, 8} {
			got, err := Options{Workers: w}.PossibleAnswers(query.Identity{}, d)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !got.Equal(want) {
				t.Fatalf("trial %d: answers differ at %d workers:\n%v\nvs\n%v", trial, w, got, want)
			}
		}
	}
}

func TestPossibleAnswersRequiresLiftable(t *testing.T) {
	d := randomDB(rand.New(rand.NewSource(1)), 0, 2)
	if _, err := (Options{}).PossibleAnswers(foQuery(), d); err == nil {
		t.Error("first-order queries must be rejected")
	}
}
