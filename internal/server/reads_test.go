package server

import (
	"slices"
	"strings"
	"testing"

	"pw/internal/parse"
	"pw/internal/query"
)

// TestScannedRels: the read set of a prepared query (query.Scans) is
// the relations its algebra scans, through every operator the parser
// produces; the identity query reads every relation.
func TestScannedRels(t *testing.T) {
	for _, c := range []struct {
		expr string
		want []string
	}{
		{"select[#g = a](R(k g v))", []string{"R"}},
		{"project[k](select[#g = a](R(k g v)))", []string{"R"}},
		{"join(select[#g = a](R(k g v)), values[v w](x y))", []string{"R"}},
		{"certain(possible(select[#g = a](R(k g v))))", []string{"R"}},
		{"join(join(R(x y), S(y z)), R(z w))", []string{"R", "S"}},
		{"union(rename[t->v](C(k t)), diff(R(k v), S(k v)))", []string{"C", "R", "S"}},
		{"choiceof(C(k t))", []string{"C"}},
	} {
		src, err := parse.ParseSource(strings.NewReader("@query q\n  out: A = " + c.expr + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		rels, all := query.Scans(*src.Query)
		got := slices.Sorted(slices.Values(rels))
		if all || !slices.Equal(got, c.want) {
			t.Errorf("%s: reads %v (all=%v), want %v", c.expr, got, all, c.want)
		}
	}
	if _, all := query.Scans(query.Identity{}); !all {
		t.Error("the identity query does not read every relation")
	}
}
