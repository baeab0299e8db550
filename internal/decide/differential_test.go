// Differential validation of the decision engine through the shared
// metamorphic harness (internal/difftest): the determinism contract —
// every decision procedure returns identical results at Workers = 1, 2
// and 8 AND matches the brute-force scan of the canonical world list —
// enforced across seeded random databases of every representation kind,
// for the identity query, a genuinely first-order query and a liftable
// ≠-query, plus the Π₂ᵖ containment cell. The sharding thresholds are
// lowered so the parallel machinery genuinely engages on these small
// inputs (and so the race detector sees the real pool/cancellation code
// paths).
package decide_test

import (
	"testing"

	"pw/internal/algebra"
	"pw/internal/difftest"
	"pw/internal/fo"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/valuation"
	"pw/internal/value"
	"pw/internal/worlds"
)

func forceParallel(t *testing.T) {
	t.Helper()
	old := valuation.MinShardedSpace
	valuation.MinShardedSpace = 1
	t.Cleanup(func() { valuation.MinShardedSpace = old })
}

// workerSweep is the determinism contract: the same engine at three
// worker counts, every answer compared to the same oracle.
func workerSweep(withAnswers bool) []difftest.Backend {
	return []difftest.Backend{
		difftest.DecideBackend(1, withAnswers),
		difftest.DecideBackend(2, withAnswers),
		difftest.DecideBackend(8, withAnswers),
	}
}

func genDB(seed int64, kind int64) *table.Database {
	rows := 2 + int(seed)%2
	switch kind {
	case 0:
		return table.DB(gen.CoddTable(seed, "T", rows, 2, 4, 0.5))
	case 1:
		return table.DB(gen.ETable(seed, "T", rows, 2, 4, 2, 0.5))
	case 2:
		return table.DB(gen.ITable(seed, "T", rows, 2, 4, 2, 0.5))
	default:
		return table.DB(gen.CTable(seed, "T", rows, 2, 4, 2, 0.5, 0.5))
	}
}

// decideCase builds a difftest case over the canonical world list of a
// seeded database of the given kind, bounded for the oracle scan.
func decideCase(seed int64, q query.Query) (*difftest.Case, bool) {
	d := genDB(seed, seed%4)
	if len(d.VarNames()) > 4 {
		return nil, false
	}
	W := worlds.All(d)
	if len(W) == 0 || len(W) > 400 {
		return nil, false
	}
	return &difftest.Case{Worlds: W, DB: d, Query: q, Consts: d.ConstNames()}, true
}

// TestDifferentialDecideIdentity covers the identity-query cells
// (matching, backtracking search, per-fact coNP fan-outs, the lifted
// answer sets) on seeded databases of every representation kind.
func TestDifferentialDecideIdentity(t *testing.T) {
	forceParallel(t)
	difftest.Run(t, difftest.Config{
		Tag:      "decide-identity",
		Cases:    152,
		Gen:      func(seed int64) (*difftest.Case, bool) { return decideCase(seed, nil) },
		Backends: workerSweep(true),
	})
}

// diffNeqQuery is π[a](σ[a≠b] T) — liftable but not positive.
func diffNeqQuery() query.Query {
	return query.NewAlgebra("neq",
		query.Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("T", "a", "b"), algebra.NeqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
}

// diffFOQuery is {w | ∃a,b T(a,b) ∧ ¬T(b,a) ∧ w=1} — genuinely first
// order.
func diffFOQuery() query.Query {
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

// TestDifferentialDecideViews drives the generic NP/coNP cells — the
// sharded canonical enumerations — with a genuinely first-order query,
// and the lifted answer computation with a liftable ≠-query, each
// through the worker sweep.
func TestDifferentialDecideViews(t *testing.T) {
	forceParallel(t)
	difftest.Run(t, difftest.Config{
		Tag:      "decide-fo",
		Cases:    150,
		Gen:      func(seed int64) (*difftest.Case, bool) { return decideCase(seed, diffFOQuery()) },
		Backends: workerSweep(false), // FO queries are outside the lifted-answers fragment
	})
	difftest.Run(t, difftest.Config{
		Tag:      "decide-neq",
		Cases:    150,
		Gen:      func(seed int64) (*difftest.Case, bool) { return decideCase(seed, diffNeqQuery()) },
		Backends: workerSweep(true),
	})
}

// TestDifferentialDecideContainment covers the Π₂ᵖ cell — the sharded
// outer universal with sequential inner membership — on seeded database
// pairs, half supersets (usually yes) and half unrelated (usually no).
// The sub side's worlds enumerate over the joint constant pool plus one
// fresh constant per sub variable (Proposition 2.1); the sup-side
// oracle is the engine-independent valuation search, since the sup
// rep ranges over constants its own canonical enumeration would not
// realize.
func TestDifferentialDecideContainment(t *testing.T) {
	forceParallel(t)
	difftest.RunContainment(t, difftest.ContConfig{
		Tag:   "decide-cont",
		Cases: 150,
		Gen: func(seed int64) (sub, sup *difftest.Case, ok bool) {
			t0 := gen.ETable(seed, "T", 2, 2, 3, 2, 0.5)
			var other *table.Table
			if seed%2 == 0 {
				other = t0.Clone()
				other.AddTuple(value.Var("wild1"), value.Var("wild2"))
			} else {
				other = gen.ITable(seed+100, "T", 2, 2, 3, 1, 0.5)
			}
			d0, d := table.DB(t0.Clone()), table.DB(other)

			// Enumerate the sub side over consts(both) ∪ Δ′(sub vars).
			delta := table.NewDelta(nil, []*table.Database{d0, d})
			dom := append(delta.Base, table.FreshConsts(delta.Prefix, len(d0.VarNames()))...)
			var W []*rel.Instance
			worlds.Each(d0, dom, func(w *rel.Instance) bool {
				W = append(W, w)
				return len(W) > 600
			})
			if len(W) == 0 || len(W) > 600 {
				return nil, nil, false
			}
			return &difftest.Case{Worlds: W, DB: d0}, &difftest.Case{DB: d}, true
		},
		SupMember: func(w *rel.Instance, sup *difftest.Case) bool {
			return worlds.Member(w, sup.DB)
		},
		Backends: []difftest.ContBackend{
			difftest.DecideContBackend(1),
			difftest.DecideContBackend(2),
			difftest.DecideContBackend(8),
		},
	})
}
