// ToWSD: the compiler from the conditioned-table backend into the
// decomposition backend. Rows are grouped by variable connectivity
// (shared variables across row values, local conditions and global
// atoms); each group compiles to one component by enumerating its own
// small valuation space, and Normalize stitches the components into
// product-normal form (merging groups whose fragments overlap).
package wsd

import (
	"errors"
	"fmt"
	"sort"

	"pw/internal/cond"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/unionfind"
	"pw/internal/valuation"
)

// ErrInfiniteRep is wrapped by ToWSD when the database's world set is
// infinite and therefore not representable as a (finite) decomposition:
// some variable occurs in a row value and is not forced to a constant by
// the global condition, so it ranges over the whole infinite domain 𝒟.
var ErrInfiniteRep = errors.New("rep is infinite")

// MaxCompileValuations bounds the per-group valuation space the compiler
// is willing to enumerate (|domain|^vars for the largest connected
// variable group).
const MaxCompileValuations = 1 << 22

// ToWSD compiles a database to a decomposition denoting exactly rep(d) —
// the true, unrestricted world set. It errors (wrapping ErrInfiniteRep)
// when rep(d) is infinite: after incorporating the equalities implied by
// the global condition, some variable still occurs in a row value, so it
// ranges over infinitely many constants and so does the world set.
// Variables occurring only in conditions are fine: only their
// (in)equality pattern matters, and the canonical domain Δ ∪ Δ′ realizes
// every pattern (Proposition 2.1's genericity argument).
func ToWSD(d *table.Database) (*WSD, error) {
	nd, ok := table.Normalize(d)
	if !ok {
		w := New(d.Schema())
		w.empty = true
		return w, nil
	}
	for _, t := range nd.Tables() {
		for _, r := range t.Rows {
			for _, v := range r.Values {
				if v.IsVar() {
					return nil, fmt.Errorf("wsd: %w: variable ?%s occurs in a row of table %s and is not forced to a constant",
						ErrInfiniteRep, v.Name(), t.Name)
				}
			}
		}
	}
	return compile(nd, valuation.Domain(nd))
}

// ToWSDOverDomain compiles a database to the decomposition of its world
// set restricted to valuations into the given finite domain — the
// standard finite proxy for rep(d). A nil domain means the canonical
// Δ ∪ Δ′ of Proposition 2.1, making the result agree exactly with the
// worlds-oracle enumeration (worlds.All).
func ToWSDOverDomain(d *table.Database, domain []string) (*WSD, error) {
	var dom []sym.ID
	if domain == nil {
		dom = valuation.Domain(d)
	} else {
		dom = make([]sym.ID, len(domain))
		for i, c := range domain {
			dom[i] = sym.Const(c)
		}
	}
	return compile(d, dom)
}

// group is one connected component of the variable-sharing graph: the
// rows and global atoms whose valuation choices are entangled.
type group struct {
	vars  []sym.ID
	rows  []groupRow
	atoms cond.Conjunction
}

// groupRow is one table row assigned to a group.
type groupRow struct {
	rel int32
	row table.Row
}

// compile enumerates each connected variable group's valuations over dom
// and assembles the per-group alternatives into a decomposition.
func compile(d *table.Database, dom []sym.ID) (*WSD, error) {
	w := New(d.Schema())

	// Ground global atoms must hold in every world.
	for _, a := range d.GlobalConjunction() {
		if !a.L.IsVar() && !a.R.IsVar() && !a.TriviallyTrue() {
			w.empty = true
			return w, nil
		}
	}

	// Union–find over variables: the variables of one row (values plus
	// local condition) are connected, as are the variables of each global
	// atom.
	vars := d.VarIDs(nil, map[sym.ID]bool{})
	slot := make(map[sym.ID]int32, len(vars))
	for i, v := range vars {
		slot[v] = int32(i)
	}
	uf := unionfind.NewDense(len(vars))
	connect := func(vs []sym.ID) {
		for i := 1; i < len(vs); i++ {
			uf.Union(slot[vs[0]], slot[vs[i]])
		}
	}
	rowVars := func(r table.Row) []sym.ID {
		rv := r.Values.VarIDs(nil, map[sym.ID]bool{})
		return r.Cond.VarIDs(rv, map[sym.ID]bool{})
	}
	for _, t := range d.Tables() {
		for _, r := range t.Rows {
			connect(rowVars(r))
		}
		for _, a := range t.Global {
			connect(atomVarIDs(a))
		}
	}

	// Partition rows and atoms by group root; ground rows (no variables
	// anywhere) resolve immediately to certain facts.
	groups := make(map[int32]*group)
	groupOf := func(v sym.ID) *group {
		r := uf.Find(slot[v])
		g, ok := groups[r]
		if !ok {
			g = &group{}
			groups[r] = g
		}
		return g
	}
	var certainIDs []int32
	for _, t := range d.Tables() {
		ri := int32(w.schemaIdx[t.Name])
		for _, r := range t.Rows {
			rv := rowVars(r)
			if len(rv) == 0 {
				if groundCondHolds(r.Cond) {
					certainIDs = append(certainIDs, w.intern(ri, r.Values.Clone()))
				}
				continue
			}
			g := groupOf(rv[0])
			g.rows = append(g.rows, groupRow{rel: ri, row: r})
		}
		for _, a := range t.Global {
			if av := atomVarIDs(a); len(av) > 0 {
				g := groupOf(av[0])
				g.atoms = append(g.atoms, a)
			}
		}
	}
	for i, v := range vars {
		if g, ok := groups[uf.Find(int32(i))]; ok {
			g.vars = append(g.vars, v)
		}
	}
	if len(certainIDs) > 0 {
		w.pending = append(w.pending, component{alts: [][]int32{sortDedupIDs(certainIDs)}})
	}

	// Deterministic group order: by smallest variable name.
	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		sym.SortByName(g.vars)
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return sym.Compare(ordered[i].vars[0], ordered[j].vars[0]) < 0
	})

	// Enumerate each group's valuation space into its alternatives.
	for _, g := range ordered {
		space := 1
		for range g.vars {
			space *= len(dom)
			if space > MaxCompileValuations {
				return nil, fmt.Errorf("wsd: group of %d variables over a domain of %d constants exceeds the compile budget of %d valuations",
					len(g.vars), len(dom), MaxCompileValuations)
			}
		}
		u := sym.NewUniverse(g.vars)
		var alts [][]int32
		valuation.Enumerate(u, dom, func(v valuation.V) bool {
			for _, a := range g.atoms {
				if !v.Atom(a) {
					return false
				}
			}
			var ids []int32
			for _, gr := range g.rows {
				if !v.Satisfies(gr.row.Cond) {
					continue
				}
				ids = append(ids, w.intern(gr.rel, v.Tuple(gr.row.Values)))
			}
			alts = append(alts, sortDedupIDs(ids))
			return false
		})
		// Zero surviving valuations mean the global condition is
		// unsatisfiable over the domain: a component with no
		// alternatives, which Normalize collapses to ∅.
		w.pending = append(w.pending, component{alts: alts})
	}

	w.normalized = false
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	return w, nil
}

// atomVarIDs lists an atom's distinct variables.
func atomVarIDs(a cond.Atom) []sym.ID {
	var out []sym.ID
	if a.L.IsVar() {
		out = append(out, a.L)
	}
	if a.R.IsVar() && (len(out) == 0 || out[0] != a.R) {
		out = append(out, a.R)
	}
	return out
}

// groundCondHolds evaluates a variable-free conjunction.
func groundCondHolds(c cond.Conjunction) bool {
	for _, a := range c {
		if (a.Op == cond.Eq) != (a.L == a.R) {
			return false
		}
	}
	return true
}
