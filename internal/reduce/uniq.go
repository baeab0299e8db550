package reduce

import (
	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/graph"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sat"
	"pw/internal/sym"
	"pw/internal/table"
)

// UniqInstance bundles a uniqueness question: is Q0(rep(D0)) = {I}?
type UniqInstance struct {
	Q0 query.Query
	D0 *table.Database
	I  *rel.Instance
}

// UniqCTableFromDNF is the Theorem 3.2(3) reduction: a c-table T0 with one
// unary row (1) per DNF clause, the row's local condition encoding the
// clause over shared variables u_j ((u_j = 1) for a positive literal x_j,
// (u_j ≠ 1) for ¬x_j). The global condition is true and I = {(1)}.
//
// H is a 3DNF tautology iff I is the unique representative of rep(T0):
// a falsifying assignment makes every local condition fail, producing the
// empty instance as a second representative.
func UniqCTableFromDNF(f sat.DNF) UniqInstance {
	t := table.New("T", 1)
	for _, c := range f.Clauses {
		local := make(cond.Conjunction, 0, 3)
		for _, l := range c {
			u := sym.Var("u" + sint(l.Var))
			if l.Neg {
				local = append(local, cond.NeqAtom(u, kint(1)))
			} else {
				local = append(local, cond.EqAtom(u, kint(1)))
			}
		}
		t.Add(table.Row{Values: sym.Tuple{kint(1)}, Cond: local})
	}
	i := rel.NewInstance()
	i.EnsureRelation("T", 1).AddRow("1")
	return UniqInstance{Q0: query.Identity{}, D0: table.DB(t), I: i}
}

// UniqViewFromGraph is the Theorem 3.2(4) reduction (Fig. 6): a Codd-table
//
//	T0 = {(1,a,b) : (a,b) ∈ E} ∪ {(0,a,x_a) : a ∈ V}
//
// and the positive-existential-with-≠ query
//
//	q0 = {1 | ∃x,y,z[R(1,x,y) ∧ R(0,x,z) ∧ R(0,y,z)]
//	        ∨ ∃y,z[R(0,y,z) ∧ z≠1 ∧ z≠2 ∧ z≠3]}
//
// (the first disjunct fires when two adjacent vertices share a color, the
// second when some color is outside {1,2,3}). G is NOT 3-colorable iff
// {(1)} is the unique instance of rep(q0(T0)).
//
// The construction requires a non-empty edge set (the paper assumes G is
// not the empty graph): both branches emit the constant by projecting the
// first column of a (1,a,b) row.
func UniqViewFromGraph(g *graph.G) UniqInstance {
	t0 := table.New("R", 3)
	for _, e := range g.Edges {
		t0.AddTuple(kint(1), kint(e.A+1), kint(e.B+1))
	}
	for a := 0; a < g.N; a++ {
		t0.AddTuple(kint(0), kint(a+1), vx(a))
	}

	// Branch 1: adjacent vertices x,y share the color z.
	edges := algebra.Where(algebra.Scan("R", "f", "x", "y"), algebra.EqP(algebra.Col("f"), algebra.Lit("1")))
	colX := algebra.Where(algebra.Scan("R", "g", "x", "z"), algebra.EqP(algebra.Col("g"), algebra.Lit("0")))
	colY := algebra.Where(algebra.Scan("R", "h", "y", "z"), algebra.EqP(algebra.Col("h"), algebra.Lit("0")))
	branch1 := algebra.Project{
		E:    algebra.JoinAll(edges, colX, colY),
		Cols: []string{"f"},
	}
	// Branch 2: some vertex's color z escapes {1,2,3}; the marker constant
	// 1 again comes from projecting an edge row's first column.
	badColor := algebra.Where(algebra.Scan("R", "g", "y", "z"),
		algebra.EqP(algebra.Col("g"), algebra.Lit("0")),
		algebra.NeqP(algebra.Col("z"), algebra.Lit("1")),
		algebra.NeqP(algebra.Col("z"), algebra.Lit("2")),
		algebra.NeqP(algebra.Col("z"), algebra.Lit("3")),
	)
	marker := algebra.Project{
		E:    algebra.Rename{E: edges, From: []string{"x", "y"}, To: []string{"u", "w"}},
		Cols: []string{"f"},
	}
	branch2 := algebra.Project{
		E:    algebra.Join{L: marker, R: badColor},
		Cols: []string{"f"},
	}
	q0 := query.NewAlgebra("fig6",
		query.Out{Name: "Q", Expr: algebra.Union{L: branch1, R: branch2}})

	i := rel.NewInstance()
	i.EnsureRelation("Q", 1).AddRow("1")
	return UniqInstance{Q0: q0, D0: table.DB(t0), I: i}
}
