package valuation_test

import (
	"testing"

	"pw/internal/cond"
	"pw/internal/gen"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// TestFreezeMatchesDefinition21: table.Freeze is the world of the
// valuation sending each variable, in name order, to the next fresh
// constant of the database's Δ′. On random normalized c-tables with
// local conditions it equals V.Database under that valuation
// (Definition 2.1, the reference), local conditions included. The test
// lives outside internal/table because valuation imports table.
func TestFreezeMatchesDefinition21(t *testing.T) {
	dropped := 0
	for seed := int64(0); seed < 300; seed++ {
		tb := gen.New(gen.Config{Rows: 6, Arity: 2, Consts: 4, NullDensity: 0.5,
			VarPool: 4, NeqAtoms: 1, LocalConds: 0.7, Seed: seed}).Table("T")
		if seed%2 == 0 {
			tb.Global = append(tb.Global, cond.EqAtom(sym.Var("v0"), sym.Var("v1")))
		}
		nd, ok := table.Normalize(table.DB(tb))
		if !ok {
			continue
		}
		prefix := table.NewDelta(nil, []*table.Database{nd}).Prefix
		u := nd.Universe()
		v := valuation.Make(u)
		copy(v.Vals, table.FreshConsts(prefix, u.Len()))
		want := v.Database(nd)
		if want == nil {
			t.Fatalf("seed %d: the all-distinct-fresh valuation violates the normalized global condition\n%s", seed, nd)
		}
		if got := table.Freeze(nd, prefix); !got.Equal(want) {
			t.Fatalf("seed %d: Freeze = %v, Definition 2.1 gives %v\n%s", seed, got, want, nd)
		}
		for _, r := range nd.Tables()[0].Rows {
			if !v.Satisfies(r.Cond) {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no local condition failed under the frozen valuation: the cases test nothing")
	}
}
