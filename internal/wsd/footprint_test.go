package wsd_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pw/internal/gen"
	"pw/internal/rel"
	"pw/internal/wsd"
)

// twoRelationWorlds pairs the worlds of two random decompositions into
// worlds over R and S: world i holds the R facts of the first's world i
// and the S facts of the second's world i mod its size, so the two
// relations are correlated rather than independent.
func twoRelationWorlds(seed int64) ([]*rel.Instance, bool) {
	wr, err := gen.RandomWSD(seed, 3, 3, 2, 4)
	if err != nil {
		return nil, false
	}
	ws, err := gen.RandomWSD(seed^0x5a5a, 2, 3, 2, 4)
	if err != nil {
		return nil, false
	}
	if !wr.Count().IsInt64() || wr.Count().Int64() > 200 || ws.Count().Sign() == 0 {
		return nil, false
	}
	rs, ss := wr.Expand(0), ws.Expand(0)
	if len(rs) == 0 {
		return nil, false
	}
	out := make([]*rel.Instance, len(rs))
	for i, w := range rs {
		inst := rel.NewInstance()
		r := inst.EnsureRelation("R", 2)
		if wrel := w.Relation("R"); wrel != nil {
			r.UnionWith(wrel)
		}
		s := inst.EnsureRelation("S", 2)
		if srel := ss[i%len(ss)].Relation("R"); srel != nil {
			for _, t := range srel.Tuples() {
				s.Insert(t)
			}
		}
		out[i] = inst
	}
	return out, true
}

// randomTwoRelationUpdate draws 1–3 operations of every kind, each on R
// or S.
func randomTwoRelationUpdate(rng *rand.Rand) *wsd.Update {
	u := randomUpdate(rng, 2, 4)
	for i := range u.Ops {
		if rng.Intn(2) == 0 {
			u.Ops[i].Rel = "S"
		}
	}
	return u
}

// projection is the set of the worlds' restrictions to relation name,
// one canonical key per distinct restriction.
func projection(ws []*rel.Instance, name string) map[string]bool {
	out := make(map[string]bool, len(ws))
	for _, w := range ws {
		var ts []string
		if r := w.Relation(name); r != nil {
			for _, t := range r.Tuples() {
				ts = append(ts, strings.Join(t.Names(), ","))
			}
		}
		slices.Sort(ts)
		out[strings.Join(ts, " ")] = true
	}
	return out
}

// TestFootprintPreservesProjection: applying an update world by world
// leaves the world set's projection onto every relation outside the
// update's footprint unchanged. The converse check keeps the "assume
// touches everything" rule honest: some assume on one relation must
// change the projection onto the other.
func TestFootprintPreservesProjection(t *testing.T) {
	cases, widened := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		before, ok := twoRelationWorlds(seed)
		if !ok {
			continue
		}
		u := randomTwoRelationUpdate(rand.New(rand.NewSource(seed ^ 0xf00d)))
		after := wsd.ApplyUpdateToWorlds(before, u)
		if len(after) == 0 {
			continue // an assumption emptied the world set
		}
		cases++
		rels, all := u.Footprint()
		for _, name := range []string{"R", "S"} {
			if all || slices.Contains(rels, name) {
				continue
			}
			was, is := projection(before, name), projection(after, name)
			if !mapsEqual(was, is) {
				t.Fatalf("seed %d: %s changed the projection onto %s outside its footprint %v\nbefore %v\nafter  %v",
					seed, u, name, rels, was, is)
			}
		}
		if !all {
			continue
		}
		for _, op := range u.Ops {
			other := "R"
			if op.Rel == "R" {
				other = "S"
			}
			if !mapsEqual(projection(before, other), projection(after, other)) {
				widened++
				break
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d usable cases", cases)
	}
	if widened == 0 {
		t.Fatal("no assume changed another relation's projection; the all-relations footprint is untested")
	}
}

func mapsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
