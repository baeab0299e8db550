package table

import (
	"slices"
	"strconv"
	"strings"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
)

// Delta is the domain Δ ∪ Δ′ of Proposition 2.1, on which every decision
// problem over conditioned tables is decided: Base is Δ, the constants of
// the problem's inputs, and Prefix names Δ′, the fresh constants Prefix0,
// Prefix1, … (FreshConsts), none of which occurs in Base. Theorem 4.1's
// K₀ and Theorem 5.3(1)'s frozen world (Freeze) use the same fresh
// constants.
type Delta struct {
	Base   []sym.ID // deduplicated, in name order
	Prefix string
}

// NewDelta builds the domain of a problem whose inputs are the databases
// dbs, the instances insts (nil ones are skipped) and a query mentioning
// queryConsts.
func NewDelta(queryConsts []string, dbs []*Database, insts ...*rel.Instance) Delta {
	seen := map[sym.ID]bool{}
	var base []sym.ID
	for _, d := range dbs {
		base = d.ConstIDs(base, seen)
	}
	for _, i := range insts {
		if i != nil {
			base = i.ConstIDs(base, seen)
		}
	}
	for _, c := range queryConsts {
		if id := sym.Const(c); !seen[id] {
			seen[id] = true
			base = append(base, id)
		}
	}
	sym.SortByName(base)
	return Delta{Base: base, Prefix: freshPrefix(base)}
}

// freshPrefix returns a constant-name prefix that no constant of pool
// starts with: "~z" extended with "z"s until nothing clashes. Constant
// names produced by the library never start with '~' unless they came
// from a previous fresh prefix, so one or two rounds suffice.
func freshPrefix(pool []sym.ID) string {
	prefix := "~z"
	for slices.ContainsFunc(pool, func(id sym.ID) bool { return strings.HasPrefix(id.Name(), prefix) }) {
		prefix += "z"
	}
	return prefix
}

// FreshConsts returns the fresh constants prefix0, …, prefix(k-1). The
// names are written back to back into one buffer and resolved in one
// batch.
func FreshConsts(prefix string, k int) []sym.ID {
	buf := make([]byte, 0, k*(len(prefix)+4))
	names := make([][]byte, k)
	for i := range names {
		start := len(buf)
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
		names[i] = buf[start:]
	}
	return sym.AppendConsts(make([]sym.ID, 0, k), names)
}

// Freeze applies to d the valuation that maps every variable x to a
// distinct fresh constant a_x — prefix followed by x's rank in name order
// — keeping the rows whose local condition it satisfies (Definition 2.1).
// This is the K₀ of Theorem 4.1's claim and the frozen world of Theorem
// 5.3(1). The prefix must lie outside the constants of every input of the
// surrounding decision problem (NewDelta). Freeze ignores the global
// condition: callers normalize first, so that all equality information
// is incorporated and the residual inequalities hold between distinct
// fresh constants.
func Freeze(d *Database, prefix string) *rel.Instance {
	vars := d.VarIDs(nil, map[sym.ID]bool{})
	sym.SortByName(vars)
	fresh := FreshConsts(prefix, len(vars))
	frozen := func(id sym.ID) sym.ID {
		if !id.IsVar() {
			return id
		}
		i, _ := slices.BinarySearchFunc(vars, id, sym.Compare)
		return fresh[i]
	}
	inst := rel.NewInstance()
	var scratch sym.Tuple
	for _, t := range d.tables {
		r := rel.NewRelation(t.Name, t.Arity)
		r.Grow(len(t.Rows))
	rows:
		for _, row := range t.Rows {
			for _, a := range row.Cond {
				if (a.Op == cond.Eq) != (frozen(a.L) == frozen(a.R)) {
					continue rows
				}
			}
			if cap(scratch) < len(row.Values) {
				scratch = make(sym.Tuple, len(row.Values))
			}
			f := scratch[:len(row.Values)]
			for j, v := range row.Values {
				f[j] = frozen(v)
			}
			r.Insert(f)
		}
		inst.AddRelation(r)
	}
	return inst
}
