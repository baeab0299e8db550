// Property tests of Normalize's overlap closure, which finds the
// components sharing a fact through an index — a fact-owner array and
// per relation template buckets on one column — instead of testing
// every pair: its classes against a brute-force pairwise closure over
// expanded supports, the normalized form against the factorization of
// the explicit world list, and the number of overlap tests it runs on
// the serving benchmark's attribute-level shape.
package wsd_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// closureSchema has a binary relation and an arity-1 one, so templates
// are bucketed on a chosen column and on the only one.
var closureSchema = table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}}

// closureSpec is one pending component: explicit alternatives, or a
// template over rel with per-slot value lists.
type closureSpec struct {
	alts  []wsd.Alt
	rel   string
	cells [][]string
}

// support lists the facts the component can contribute, as R(a b)
// keys, expanding a template's product.
func (s closureSpec) support() []string {
	var out []string
	for _, choice := range s.choices() {
		out = append(out, choice...)
	}
	return out
}

// choices lists the component's alternatives as fact keys.
func (s closureSpec) choices() [][]string {
	if s.cells == nil {
		var out [][]string
		for _, alt := range s.alts {
			var facts []string
			for _, f := range alt {
				facts = append(facts, f.Rel+"("+strings.Join(f.Args, " ")+")")
			}
			out = append(out, facts)
		}
		return out
	}
	insts := [][]string{nil}
	for _, cell := range s.cells {
		var next [][]string
		for _, base := range insts {
			for _, v := range cell {
				next = append(next, append(slices.Clone(base), v))
			}
		}
		insts = next
	}
	out := make([][]string, len(insts))
	for i, args := range insts {
		out[i] = []string{s.rel + "(" + strings.Join(args, " ") + ")"}
	}
	return out
}

// closureSpecs draws 2–6 components over closureSchema from small value
// pools, so stored facts fall inside templates and templates overlap
// often: tuple-level components of one to three alternatives of up to
// two facts, and templates with a multi-value cell in any column, the
// bucket column included. With templateOnly set every template has two
// or more instantiations; otherwise some have one.
func closureSpecs(rng *rand.Rand, templateOnly bool) []closureSpec {
	pools := map[string][][]string{
		"R": {{"a0", "a1", "a2"}, {"b0", "b1", "b2"}},
		"S": {{"a0", "a1", "a2", "a3"}},
	}
	cell := func(pool []string, k int) []string {
		p := slices.Clone(pool)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p[:k:k]
	}
	fact := func() wsd.Fact {
		if rng.Intn(3) == 0 {
			return wsd.Fact{Rel: "S", Args: rel.Fact{pools["S"][0][rng.Intn(4)]}}
		}
		return wsd.Fact{Rel: "R", Args: rel.Fact{pools["R"][0][rng.Intn(3)], pools["R"][1][rng.Intn(3)]}}
	}
	var specs []closureSpec
	for n := 2 + rng.Intn(5); len(specs) < n; {
		if rng.Intn(2) == 0 {
			var s closureSpec
			for k := 1 + rng.Intn(3); len(s.alts) < k; {
				var alt wsd.Alt
				for f := rng.Intn(3); f > 0; f-- {
					alt = append(alt, fact())
				}
				s.alts = append(s.alts, alt)
			}
			specs = append(specs, s)
			continue
		}
		name := "R"
		if rng.Intn(3) == 0 {
			name = "S"
		}
		s := closureSpec{rel: name}
		for _, pool := range pools[name] {
			s.cells = append(s.cells, cell(pool, 1+rng.Intn(2)))
		}
		if templateOnly && len(s.choices()) == 1 {
			j := rng.Intn(len(s.cells))
			s.cells[j] = cell(pools[name][j], 2)
		}
		specs = append(specs, s)
	}
	return specs
}

// buildClosure adds the specs to a fresh decomposition, in order, so
// pending component i is specs[i].
func buildClosure(t *testing.T, specs []closureSpec) *wsd.WSD {
	t.Helper()
	w := wsd.New(closureSchema)
	for _, s := range specs {
		var err error
		if s.cells != nil {
			err = w.AddTemplateComponent(s.rel, s.cells...)
		} else {
			err = w.AddComponent(s.alts...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// bruteClasses is the pairwise closure: components i and j overlap when
// their expanded supports share a fact, and the classes are the
// connected components of that relation, each ascending, ordered by
// their smallest member.
func bruteClasses(specs []closureSpec) [][]int32 {
	class := make([]int, len(specs))
	for i := range class {
		class[i] = i
	}
	relabel := func(from, to int) {
		for k := range class {
			if class[k] == from {
				class[k] = to
			}
		}
	}
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			si := specs[i].support()
			if slices.ContainsFunc(specs[j].support(), func(f string) bool { return slices.Contains(si, f) }) {
				relabel(max(class[i], class[j]), min(class[i], class[j]))
			}
		}
	}
	var out [][]int32
	at := make(map[int]int)
	for i, c := range class {
		k, ok := at[c]
		if !ok {
			k = len(out)
			at[c] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], int32(i))
	}
	return out
}

// TestOverlapClassesMatchPairwise: the indexed closure's classes equal
// the brute-force pairwise closure's on random pending decompositions.
func TestOverlapClassesMatchPairwise(t *testing.T) {
	merged := 0
	for seed := int64(0); seed < 400; seed++ {
		specs := closureSpecs(rand.New(rand.NewSource(seed)), true)
		got := buildClosure(t, specs).OverlapClasses()
		want := bruteClasses(specs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: classes %v, pairwise closure %v\nspecs %+v", seed, got, want, specs)
		}
		if len(want) < len(specs) {
			merged++
		}
	}
	if merged < 100 {
		t.Fatalf("only %d of 400 cases merged anything: the generator stopped producing overlaps", merged)
	}
}

// refWorlds expands the specs into their explicit world list — one
// choice per component, the union of the chosen fact sets — without
// the engine, as instances over closureSchema, each world once.
func refWorlds(specs []closureSpec) []*rel.Instance {
	worlds := []map[string]bool{{}}
	for _, s := range specs {
		var next []map[string]bool
		for _, base := range worlds {
			for _, choice := range s.choices() {
				w := make(map[string]bool, len(base)+len(choice))
				for f := range base {
					w[f] = true
				}
				for _, f := range choice {
					w[f] = true
				}
				next = append(next, w)
			}
		}
		worlds = next
	}
	seen := make(map[string]bool)
	var out []*rel.Instance
	for _, w := range worlds {
		keys := make([]string, 0, len(w))
		for f := range w {
			keys = append(keys, f)
		}
		slices.Sort(keys)
		if k := strings.Join(keys, ","); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		inst := rel.NewInstance()
		for _, r := range closureSchema {
			inst.EnsureRelation(r.Name, r.Arity)
		}
		for _, f := range keys {
			name, args, _ := strings.Cut(strings.TrimSuffix(f, ")"), "(")
			inst.Relation(name).Add(rel.Fact(strings.Fields(args)))
		}
		out = append(out, inst)
	}
	return out
}

// printedParts splits a printed decomposition into the facts of its
// certain component (the one with a single alternative) and its other
// component blocks, sorted.
func printedParts(printed string) (certain, blocks []string) {
	parts := strings.Split(printed, "  component:\n")
	for _, part := range parts[1:] {
		if alts := strings.Split(strings.TrimSpace(part), "\n"); len(alts) == 1 && strings.HasPrefix(alts[0], "alt:") {
			certain = append(certain, strings.Split(strings.TrimSpace(strings.TrimPrefix(alts[0], "alt:")), ", ")...)
			continue
		}
		blocks = append(blocks, strings.TrimSpace(part))
	}
	slices.Sort(certain)
	slices.Sort(blocks)
	return certain, blocks
}

// TestNormalizeMatchesWorldsFactorization: Normalize over the indexed
// closure represents the explicit world list, and prints, component for
// component, what factorizing each overlap class's explicit world list
// (FromWorlds) prints, the certain facts gathered into one component.
// The specs here include templates with a single instantiation.
//
// The oracle is taken per class of the pairwise closure, not over the
// whole world list: the horizontal splitter peels one connected group
// of the block-dependence graph at a time, so a world list holding two
// independent jointly-dependent (XOR-like) groups stays one component
// under FromWorlds while Normalize, given the groups as separate
// components, keeps them apart.
func TestNormalizeMatchesWorldsFactorization(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		specs := closureSpecs(rand.New(rand.NewSource(seed)), seed%2 == 0)
		w := buildClosure(t, specs)
		if err := w.Normalize(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		worldKeys := func(ws []*rel.Instance) []string {
			var keys []string
			for _, inst := range ws {
				keys = append(keys, inst.Key())
			}
			slices.Sort(keys)
			return keys
		}
		if got, want := worldKeys(w.Expand(0)), worldKeys(refWorlds(specs)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Normalize represents %d worlds, the specs %d (or different ones)", seed, len(got), len(want))
		}
		var wantCertain, wantBlocks []string
		for _, class := range bruteClasses(specs) {
			var local []closureSpec
			for _, i := range class {
				local = append(local, specs[i])
			}
			oracle, err := wsd.FromWorlds(refWorlds(local))
			if err != nil {
				t.Fatalf("seed %d: factorizing class %v: %v", seed, class, err)
			}
			certain, blocks := printedParts(oracle.String())
			wantCertain, wantBlocks = append(wantCertain, certain...), append(wantBlocks, blocks...)
		}
		slices.Sort(wantCertain)
		slices.Sort(wantBlocks)
		gotCertain, gotBlocks := printedParts(w.String())
		if !slices.Equal(gotCertain, wantCertain) || !slices.Equal(gotBlocks, wantBlocks) {
			t.Fatalf("seed %d: Normalize printed\n%s\nthe classes' factorizations: certain %v, components\n%s",
				seed, w.String(), wantCertain, strings.Join(wantBlocks, "\n"))
		}
	}
}

// TestOverlapTestsNearLinear: on the probe-mix attribute shape (a
// template per sensor, keyed by the sensor id, plus eight certain hub
// facts) the closure runs a vanishing share of the T(T−1)/2 pairwise
// tests, and its count grows about linearly in T — also once every
// sensor has a stored fact its template's bucket must check.
func TestOverlapTestsNearLinear(t *testing.T) {
	for _, probes := range []bool{false, true} {
		count := func(n int) int64 {
			w, _ := gen.SensorTemplates(1, n)
			if probes {
				for i := 0; i < n; i++ {
					// A reading no template holds: a bucket test, no overlap.
					if err := w.AddComponent(wsd.Alt{{Rel: "A", Args: rel.Fact{fmt.Sprintf("s%05d", i), "none"}}}, wsd.Alt{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			c := obs.NewCost()
			w.SetObsCost(c)
			if err := w.Normalize(); err != nil {
				t.Fatal(err)
			}
			return c.Get(obs.NormOverlapTests)
		}
		c1k, c4k, c6k := count(1000), count(4000), count(6000)
		t.Logf("probes=%v: norm_overlap_tests %d / %d / %d at 1000 / 4000 / 6000 templates", probes, c1k, c4k, c6k)
		if pairs := int64(4000 * 3999 / 2); c4k*100 >= pairs {
			t.Errorf("probes=%v: %d overlap tests at 4000 templates, want < 1%% of %d pairs", probes, c4k, pairs)
		}
		if c6k*10 > c1k*66 {
			t.Errorf("probes=%v: %d overlap tests at 6000 templates, %d at 1000: more than 6.6x", probes, c6k, c1k)
		}
	}
}
