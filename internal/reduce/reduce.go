// Package reduce implements every hardness reduction of the paper
// (Figs. 4–12). Each construction maps a source problem instance (graph
// 3-colorability, 3CNF satisfiability, 3DNF tautology, ∀∃3CNF) to an
// instance of one of the five decision problems, exactly following the
// proofs of Theorems 3.1, 3.2, 4.2, 5.1, 5.2 and 5.3.
//
// The reductions serve three purposes in this repository:
//
//  1. they are the workload generators for the NP/coNP/Π₂ᵖ cells of the
//     Fig. 2 benchmarks;
//  2. cross-validating "source answer == target answer" on small inputs
//     simultaneously tests the reduction and the decision procedures;
//  3. they demonstrate, run live, the paper's headline qualitative claims
//     (e.g. Theorem 4.2(1): the Π₂ᵖ ceiling is already reached by a
//     Codd-table contained in an i-table).
//
// Naming: MembETableFrom3Col is "the MEMB instance on an e-table built
// from a 3-colorability instance", and so on.
package reduce

import (
	"fmt"

	"pw/internal/cond"
	"pw/internal/graph"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// vx returns the per-vertex variable x_a of the colorability reductions.
func vx(a int) sym.ID { return sym.Var(fmt.Sprintf("x%d", a)) }

// kint returns the integer constant i.
func kint(i int) sym.ID { return sym.Const(fmt.Sprintf("%d", i)) }

// sint renders i as the constant name.
func sint(i int) string { return fmt.Sprintf("%d", i) }

// MembInstance bundles a membership question: is I0 ∈ rep(D)?
type MembInstance struct {
	I0 *rel.Instance
	D  *table.Database
}

// Q0 returns the membership query: the identity, for the direct (view-free)
// reductions.
func (m MembInstance) Q0() query.Query { return query.Identity{} }

// MembETableFrom3Col is the Theorem 3.1(2) reduction (Fig. 4(c)): the
// e-table T = {ij : i≠j ∈ {1,2,3}} ∪ {x_a x_b : (a,b) ∈ E} and the
// instance I0 = {ij : i≠j}. G is 3-colorable iff I0 ∈ rep(T). Variables
// repeat across edge rows, making the table an e-table.
func MembETableFrom3Col(g *graph.G) MembInstance {
	t := table.New("T", 2)
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			if i != j {
				t.AddTuple(kint(i), kint(j))
			}
		}
	}
	for _, e := range g.Edges {
		t.AddTuple(vx(e.A), vx(e.B))
	}
	i0 := rel.NewInstance()
	r := i0.EnsureRelation("T", 2)
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			if i != j {
				r.AddRow(sint(i), sint(j))
			}
		}
	}
	return MembInstance{I0: i0, D: table.DB(t)}
}

// MembITableFrom3Col is the Theorem 3.1(3) reduction (Fig. 4(b)): the
// i-table T = {1,2,3} ∪ {x_a : a ∈ V} with global condition
// {x_a ≠ x_b : (a,b) ∈ E}, and I0 = {1,2,3}. G is 3-colorable iff
// I0 ∈ rep(T, φT).
func MembITableFrom3Col(g *graph.G) MembInstance {
	t := table.New("T", 1)
	for i := 1; i <= 3; i++ {
		t.AddTuple(kint(i))
	}
	for a := 0; a < g.N; a++ {
		t.AddTuple(vx(a))
	}
	for _, e := range g.Edges {
		t.Global = append(t.Global, cond.NeqAtom(vx(e.A), vx(e.B)))
	}
	i0 := rel.NewInstance()
	r := i0.EnsureRelation("T", 1)
	for i := 1; i <= 3; i++ {
		r.AddRow(sint(i))
	}
	return MembInstance{I0: i0, D: table.DB(t)}
}
