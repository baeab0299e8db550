package decide

import (
	"testing"

	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/worlds"
)

// TestDecideAgreesWithWorldsOnGenDatabases pins the interned-symbol engine
// against the brute-force world semantics on the internal/gen random
// databases: MEMB, UNIQ, POSS and CERT must answer exactly as enumeration
// does, for every representation kind the generator produces.
func TestDecideAgreesWithWorldsOnGenDatabases(t *testing.T) {
	build := func(seed int64, kind int) *table.Database {
		switch kind {
		case 0:
			return table.DB(gen.CoddTable(seed, "T", 3, 2, 4, 0.5))
		case 1:
			return table.DB(gen.ETable(seed, "T", 3, 2, 4, 2, 0.5))
		case 2:
			return table.DB(gen.ITable(seed, "T", 3, 2, 4, 2, 0.5))
		default:
			return table.DB(gen.CTable(seed, "T", 3, 2, 4, 2, 0.5, 0.5))
		}
	}
	id := query.Identity{}
	for kind := 0; kind < 4; kind++ {
		for seed := int64(0); seed < 8; seed++ {
			d := build(seed, kind)
			i0, ok := gen.MemberInstance(seed, d)
			if !ok {
				continue
			}
			// MEMB: the sampled world and a perturbed near-miss.
			got, err := Options{}.Membership(i0, id, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := worlds.Member(i0, d); got != want {
				t.Fatalf("kind %d seed %d MEMB: decide=%v worlds=%v\n%s\n%s",
					kind, seed, got, want, d, i0)
			}
			if pert, ok := gen.PerturbedInstance(seed, i0); ok {
				got, err := Options{}.Membership(pert, id, d)
				if err != nil {
					t.Fatal(err)
				}
				if want := worlds.Member(pert, d); got != want {
					t.Fatalf("kind %d seed %d MEMB(perturbed): decide=%v worlds=%v\n%s\n%s",
						kind, seed, got, want, d, pert)
				}
			}
			// UNIQ against brute-force singleton check.
			gotU, err := Options{}.Uniqueness(id, d, i0)
			if err != nil {
				t.Fatal(err)
			}
			wantU := worlds.Count(d) == 1 && worlds.Member(i0, d)
			if gotU != wantU {
				t.Fatalf("kind %d seed %d UNIQ: decide=%v worlds=%v\n%s\n%s",
					kind, seed, gotU, wantU, d, i0)
			}
			// POSS and CERT on the sampled world's facts.
			gotP, err := Options{}.Possible(i0, id, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := worlds.Possible(i0, d); gotP != want {
				t.Fatalf("kind %d seed %d POSS: decide=%v worlds=%v\n%s\n%s",
					kind, seed, gotP, want, d, i0)
			}
			gotC, err := Options{}.Certain(i0, id, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := worlds.Certain(i0, d); gotC != want {
				t.Fatalf("kind %d seed %d CERT: decide=%v worlds=%v\n%s\n%s",
					kind, seed, gotC, want, d, i0)
			}
		}
	}
}
