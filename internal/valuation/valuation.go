// Package valuation implements valuations (§2.2): functions from variables
// and constants to constants that fix each constant. A valuation applied to
// a conditioned table yields a possible world; the package also provides
// the canonical-domain enumerator behind Proposition 2.1's observation that
// only valuations into Δ ∪ Δ′ matter.
//
// A valuation is a dense []sym.ID indexed by the variable slots of a
// sym.Universe — one flat slice reused across the entire exponential
// enumeration, where the seed allocated a map[string]string per candidate.
package valuation

import (
	"fmt"
	"sort"
	"strings"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
)

// V is a valuation: a total assignment of constant IDs to the variable
// slots of a universe. Applying V to a variable it does not bind (or that
// is outside its universe) panics — decision procedures must enumerate
// complete valuations.
type V struct {
	U    *sym.Universe
	Vals []sym.ID // indexed by universe slot; sym.None = unbound
}

// Make returns an all-unbound valuation over u.
func Make(u *sym.Universe) V {
	vals := make([]sym.ID, u.Len())
	for i := range vals {
		vals[i] = sym.None
	}
	return V{U: u, Vals: vals}
}

// Clone returns a copy of v sharing the universe.
func (v V) Clone() V {
	c := V{U: v.U, Vals: make([]sym.ID, len(v.Vals))}
	copy(c.Vals, v.Vals)
	return c
}

// Set binds variable x (which must be in the universe) to constant c.
func (v V) Set(x, c sym.ID) {
	s := v.U.Slot(x)
	if s < 0 {
		panic("valuation: variable ?" + x.Name() + " outside universe")
	}
	v.Vals[s] = c
}

// Value maps a value through the valuation: constants map to themselves.
func (v V) Value(x value.Value) sym.ID {
	id := x.ID()
	if !id.IsVar() {
		return id
	}
	s := v.U.Slot(id)
	if s < 0 || v.Vals[s] == sym.None {
		panic("valuation: unbound variable ?" + x.Name())
	}
	return v.Vals[s]
}

// Lookup returns the constant name bound to the named variable, for tests
// and display; ok is false when the variable is absent or unbound.
func (v V) Lookup(name string) (string, bool) {
	s := v.U.Slot(sym.Var(name))
	if s < 0 || v.Vals[s] == sym.None {
		return "", false
	}
	return v.Vals[s].Name(), true
}

// Tuple applies v to a tuple, producing a fresh interned fact.
func (v V) Tuple(t value.Tuple) sym.Tuple {
	f := make(sym.Tuple, len(t))
	for i, x := range t {
		f[i] = v.Value(x)
	}
	return f
}

// Atom reports whether v satisfies the atom — a pure ID comparison.
func (v V) Atom(a cond.Atom) bool {
	l, r := v.Value(a.L), v.Value(a.R)
	if a.Op == cond.Eq {
		return l == r
	}
	return l != r
}

// Satisfies reports whether v satisfies every atom of the conjunction.
func (v V) Satisfies(c cond.Conjunction) bool {
	for _, a := range c {
		if !v.Atom(a) {
			return false
		}
	}
	return true
}

// Table applies v to a conditioned table per Definition 2.1: the result
// consists exactly of the facts σ(t) for rows t whose local condition σ
// satisfies. The caller must separately check the global condition.
func (v V) Table(t *table.Table) *rel.Relation {
	r := rel.NewRelation(t.Name, t.Arity)
	scratch := make(sym.Tuple, t.Arity)
	for _, row := range t.Rows {
		if v.Satisfies(row.Cond) {
			for i, x := range row.Values {
				scratch[i] = v.Value(x)
			}
			r.Insert(scratch)
		}
	}
	return r
}

// Database applies v to every table of d, producing an instance, with nil
// returned when v does not satisfy the combined global condition (in which
// case v denotes no world).
func (v V) Database(d *table.Database) *rel.Instance {
	if !v.Satisfies(d.GlobalConjunction()) {
		return nil
	}
	inst := rel.NewInstance()
	for _, t := range d.Tables() {
		inst.AddRelation(v.Table(t))
	}
	return inst
}

// String renders the valuation deterministically, e.g. "{x→1, y→2}".
func (v V) String() string {
	type pair struct{ name, c string }
	pairs := make([]pair, 0, len(v.Vals))
	for i, x := range v.U.Vars() {
		if v.Vals[i] != sym.None {
			pairs = append(pairs, pair{x.Name(), v.Vals[i].Name()})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("%s→%s", p.name, p.c)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Domain materializes the canonical valuation domain Δ ∪ Δ′ of
// Proposition 2.1 for the database d, optionally extended by the
// constants of extra instances (e.g. the I₀ of MEMB or the fact set P of
// POSS): table.NewDelta's base plus one fresh constant per variable, as
// interned IDs in canonical name order.
func Domain(d *table.Database, extra ...*rel.Instance) []sym.ID {
	delta := table.NewDelta(nil, []*table.Database{d}, extra...)
	nVars := len(d.VarIDs(nil, map[sym.ID]bool{}))
	dom := append(delta.Base, table.FreshConsts(delta.Prefix, nVars)...)
	sym.SortByName(dom)
	return dom
}

// Enumerate calls fn for every total valuation of u's variables into
// domain, in lexicographic order, stopping early (and returning true) when
// fn returns true. With |u| = k and |domain| = d it enumerates d^k
// valuations: the exponential ground-truth search of Proposition 2.1, used
// by the generic solvers and by cross-validation tests. The valuation
// passed to fn is reused between calls; clone it to retain it.
func Enumerate(u *sym.Universe, domain []sym.ID, fn func(V) bool) bool {
	k := u.Len()
	if len(domain) == 0 && k > 0 {
		return false
	}
	v := Make(u)
	idx := make([]int, k)
	for {
		for i := 0; i < k; i++ {
			v.Vals[i] = domain[idx[i]]
		}
		if fn(v) {
			return true
		}
		// Odometer increment.
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(domain) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return false
		}
	}
}

// Count returns the number of total valuations Enumerate would visit.
func Count(u *sym.Universe, domain []sym.ID) int {
	n := 1
	for i := 0; i < u.Len(); i++ {
		n *= len(domain)
	}
	return n
}

// EnumerateCanonical enumerates valuations of u's variables into base ∪ Δ′
// up to renaming of the fresh constants: the fresh constants prefix0,
// prefix1, … (table.FreshConsts, minted once per call) are introduced in
// first-use order (a restricted-growth constraint), so
// two valuations differing only by a permutation of fresh constants are
// visited once. All five decision problems are invariant under bijections
// fixing the input constants (genericity, Proposition 2.1), so the
// canonical enumeration is sound and complete for them while visiting
// Π(|base|+i) instead of (|base|+|u|)^|u| valuations.
//
// fn's valuation is reused between calls; clone it to retain it.
func EnumerateCanonical(u *sym.Universe, base []sym.ID, prefix string, fn func(V) bool) bool {
	k := u.Len()
	v := Make(u)
	fresh := table.FreshConsts(prefix, k)
	var rec func(i, used int) bool
	rec = func(i, used int) bool {
		if i == k {
			return fn(v)
		}
		for _, c := range base {
			v.Vals[i] = c
			if rec(i+1, used) {
				return true
			}
		}
		// Reuse fresh constants introduced so far, or introduce the next.
		for j := 0; j <= used && j < k; j++ {
			v.Vals[i] = fresh[j]
			next := used
			if j == used {
				next = used + 1
			}
			if rec(i+1, next) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}
