package reduce

import (
	"pw/internal/algebra"
	"pw/internal/graph"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// MembViewInstance bundles a view-membership question: is I0 ∈ q(rep(D))?
type MembViewInstance struct {
	I0 *rel.Instance
	Q  query.Query
	D  *table.Database
}

// MembViewFrom3Col is the Theorem 3.1(4) reduction (Fig. 4(d)): a positive
// existential query on a vector of Codd-tables whose membership question
// decides 3-colorability.
//
// T(R) has arity 5 with one row (b_j, x_j, c_j, y_j, j) per oriented edge
// j = (b_j, c_j): columns 2 and 4 hold the (unknown) colors of the
// endpoints in that edge's row. T(S) lists the valid color pairs
// {(i,j) : i ≠ j ∈ {1,2,3}}. The instance asks that
//
//	q1 — the vertex/edge/edge triples where a vertex is assigned the same
//	     color in both edges — equal R0 = all triples (a, j, k) with a an
//	     endpoint of both j and k (color consistency), and
//	q2 — the edges whose two endpoint colors form a valid pair — equal
//	     S0 = all edge ids (properness).
//
// G is 3-colorable iff I0 = (R0, S0) ∈ q(rep(T)).
func MembViewFrom3Col(g *graph.G) MembViewInstance {
	r := table.New("R", 5)
	for j, e := range g.Edges {
		r.AddTuple(kint(e.A+1), vcolor("x", j), kint(e.B+1), vcolor("y", j), kint(j+1))
	}
	s := table.New("S", 2)
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			if i != j {
				s.AddTuple(kint(i), kint(j))
			}
		}
	}

	i0 := rel.NewInstance()
	r0 := i0.EnsureRelation("R0", 3)
	for j, ej := range g.Edges {
		for k, ek := range g.Edges {
			for _, a := range []int{ej.A, ej.B} {
				if a == ek.A || a == ek.B {
					r0.AddRow(sint(a+1), sint(j+1), sint(k+1))
				}
			}
		}
	}
	s0 := i0.EnsureRelation("S0", 1)
	for j := range g.Edges {
		s0.AddRow(sint(j + 1))
	}

	// Occ(x, y, e): vertex x occurs with color y in edge e.
	occ := algebra.Union{
		L: algebra.Project{E: algebra.Scan("R", "x", "y", "v", "w", "e"), Cols: []string{"x", "y", "e"}},
		R: algebra.Project{E: algebra.Scan("R", "v", "w", "x", "y", "e"), Cols: []string{"x", "y", "e"}},
	}
	occ2 := algebra.Rename{E: occ, From: []string{"e"}, To: []string{"e2"}}
	q1 := algebra.Project{E: algebra.Join{L: occ, R: occ2}, Cols: []string{"x", "e", "e2"}}
	q2 := algebra.Project{
		E:    algebra.Join{L: algebra.Scan("R", "n1", "c1", "n2", "c2", "e"), R: algebra.Scan("S", "c1", "c2")},
		Cols: []string{"e"},
	}
	q := query.NewAlgebra("fig4d",
		query.Out{Name: "R0", Expr: q1},
		query.Out{Name: "S0", Expr: q2},
	)
	return MembViewInstance{I0: i0, Q: q, D: table.DB(r, s)}
}

// vcolor names the per-edge color variables of MembViewFrom3Col.
func vcolor(prefix string, edge int) sym.ID {
	return sym.Var(prefix + sint(edge+1))
}
