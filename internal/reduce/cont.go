package reduce

import (
	"fmt"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/sat"
	"pw/internal/sym"
	"pw/internal/table"
)

// ContInstance bundles a containment question: is Q0(rep(D0)) ⊆ Q(rep(D))?
type ContInstance struct {
	Q0 query.Query
	D0 *table.Database
	Q  query.Query
	D  *table.Database
}

// vn builds the named indexed variable, e.g. vn("u", 3) = ?u3.
func vn(prefix string, i int) sym.ID {
	return sym.Var(fmt.Sprintf("%s%d", prefix, i))
}

// zkj is the per-clause-member variable z_{k,j} of the ∀∃ reductions.
func zkj(k, j int) sym.ID {
	return sym.Var(fmt.Sprintf("z%d_%d", k, j))
}

// bitRows appends the seven rows (a,b,c,0) with a,b,c ∈ {0,1}, a+b+c ≠ 0.
func bitRows(t *table.Table) {
	for a := 0; a <= 1; a++ {
		for b := 0; b <= 1; b++ {
			for c := 0; c <= 1; c++ {
				if a+b+c != 0 {
					t.AddTuple(kint(a), kint(b), kint(c), kint(0))
				}
			}
		}
	}
}

// ContITableFromForallExists is the Theorem 4.2(1) reduction (Fig. 7):
// containment of a Codd-table in an i-table is Π₂ᵖ-complete. For the
// ∀∃3CNF instance with universal variables x_1..x_n (q.NX) the tables of
// arity 4 are
//
//	T0 = {(0,z_i,i,i)} ∪ {(1,0,i,i)} ∪ {(a,b,c,0) : a+b+c≠0}
//	T  = {(u_i,w_i,i,i)} ∪ {(v_i,y_i,i,i)} ∪ {(a,b,c,0) : a+b+c≠0}
//	     ∪ {(z_{k,1},z_{k,2},z_{k,3},0) : clause k}
//
// with the global inequalities w_i ≠ 5, y_i ≠ 6, the complementary-literal
// constraints between z variables, and z_{k,j} ≠ v_l / ≠ u_l for positive /
// negative universal members. σ0(z_i) = 5 encodes x_i true, 6 false, and
// the answer to the ∀∃ question is yes iff rep(T0) ⊆ rep(T, φT).
func ContITableFromForallExists(q sat.ForallExists) ContInstance {
	n := q.NX
	t0 := table.New("T", 4)
	for i := 1; i <= n; i++ {
		t0.AddTuple(kint(0), vn("zz", i), kint(i), kint(i))
		t0.AddTuple(kint(1), kint(0), kint(i), kint(i))
	}
	bitRows(t0)

	t := table.New("T", 4)
	for i := 1; i <= n; i++ {
		t.AddTuple(vn("u", i), vn("w", i), kint(i), kint(i))
		t.AddTuple(vn("v", i), vn("y", i), kint(i), kint(i))
		t.Global = append(t.Global,
			cond.NeqAtom(vn("w", i), kint(5)),
			cond.NeqAtom(vn("y", i), kint(6)),
		)
	}
	bitRows(t)
	for k, c := range q.Clauses {
		t.AddTuple(zkj(k+1, 1), zkj(k+1, 2), zkj(k+1, 3), kint(0))
		_ = c
	}
	// Complementary members across clauses: z_{k,j} ≠ z_{k',j'} whenever
	// position j of clause k holds x and position j' of clause k' holds ¬x.
	for k, ck := range q.Clauses {
		for j, lj := range ck {
			for k2, ck2 := range q.Clauses {
				for j2, lj2 := range ck2 {
					if lj.Var == lj2.Var && !lj.Neg && lj2.Neg {
						t.Global = append(t.Global,
							cond.NeqAtom(zkj(k+1, j+1), zkj(k2+1, j2+1)))
					}
				}
			}
			// Universal members link to the u/v encodings (1-based
			// universal variables are Var < NX).
			if lj.Var < q.NX {
				l := lj.Var + 1
				if lj.Neg {
					t.Global = append(t.Global, cond.NeqAtom(zkj(k+1, j+1), vn("u", l)))
				} else {
					t.Global = append(t.Global, cond.NeqAtom(zkj(k+1, j+1), vn("v", l)))
				}
			}
		}
	}
	return ContInstance{
		Q0: query.Identity{}, D0: table.DB(t0),
		Q: query.Identity{}, D: table.DB(t),
	}
}

// ContViewFromForallExists is the Theorem 4.2(2) reduction (Fig. 8):
// containment of a Codd-table in a positive existential view of
// Codd-tables is Π₂ᵖ-complete.
//
//	T0(Ro) = {(i, v_i)}            T(R) = {(i, u_i)}
//	T0(So) = {(k)}                 T(S) = {(k, z_{k,j}, i, 1|0)}
//
// q = (q1, q2) with q1 the identity on R and q2 emitting each clause k
// with a satisfied member, plus the marker 0 whenever the satisfied
// members are inconsistent with each other or with the u assignment.
// σ0(v_i) = 1 encodes x_i true; the ∀∃ answer is yes iff
// rep(T0) ⊆ q(rep(T)).
func ContViewFromForallExists(q sat.ForallExists) ContInstance {
	n := q.NX
	t0r := table.New("Ro", 2)
	for i := 1; i <= n; i++ {
		t0r.AddTuple(kint(i), vn("v", i))
	}
	t0s := table.New("So", 1)
	for k := range q.Clauses {
		t0s.AddTuple(kint(k + 1))
	}

	tr := table.New("R", 2)
	for i := 1; i <= n; i++ {
		tr.AddTuple(kint(i), vn("u", i))
	}
	ts := table.New("S", 4)
	for k, c := range q.Clauses {
		for j, l := range c {
			sign := 1
			if l.Neg {
				sign = 0
			}
			ts.AddTuple(kint(k+1), zkj(k+1, j+1), kint(l.Var+1), kint(sign))
		}
	}

	// q1: identity on R.
	q1 := algebra.Scan("R", "i", "u")
	// q2, four branches over S(k, m, i, s) (k clause, m member-satisfied
	// flag, i variable, s sign) and R(i, u):
	sSat := func(cols ...string) algebra.Expr { // σ[m=1](S) with given col names
		return algebra.Where(algebra.Scan("S", cols...),
			algebra.EqP(algebra.Col(cols[1]), algebra.Lit("1")))
	}
	// (1) clauses with a satisfied member.
	b1 := algebra.Project{E: sSat("k", "m", "i", "s"), Cols: []string{"k"}}
	// (2) the same variable i has both a satisfied negative occurrence
	// (s=0) and a satisfied positive occurrence (s2=1): emit 0 by
	// projecting the s column of the negative side.
	neg := algebra.Where(sSat("k", "m", "i", "s"), algebra.EqP(algebra.Col("s"), algebra.Lit("0")))
	pos := algebra.Where(sSat("k2", "m2", "i", "s2"), algebra.EqP(algebra.Col("s2"), algebra.Lit("1")))
	b2 := algebra.Project{E: algebra.Join{L: neg, R: pos}, Cols: []string{"s"}}
	// (3) u_i = 0 (x_i false) but a positive occurrence of i is satisfied:
	// emit 0 by projecting the u column.
	rFalse := algebra.Where(algebra.Scan("R", "i", "u"), algebra.EqP(algebra.Col("u"), algebra.Lit("0")))
	b3 := algebra.Project{E: algebra.Join{L: rFalse, R: pos}, Cols: []string{"u"}}
	// (4) u_i = 1 but a negative occurrence of i is satisfied: emit 0 by
	// projecting the s column of the negative side.
	rTrue := algebra.Where(algebra.Scan("R", "i", "u"), algebra.EqP(algebra.Col("u"), algebra.Lit("1")))
	b4 := algebra.Project{E: algebra.Join{L: rTrue, R: neg}, Cols: []string{"s"}}

	rename := func(e algebra.Expr) algebra.Expr {
		return algebra.Rename{E: e, From: firstCol(e), To: []string{"out"}}
	}
	q2 := algebra.UnionAll(rename(b1), rename(b2), rename(b3), rename(b4))
	qq := query.NewAlgebra("fig8",
		query.Out{Name: "Ro", Expr: q1},
		query.Out{Name: "So", Expr: q2},
	)
	return ContInstance{
		Q0: query.Identity{}, D0: table.DB(t0r, t0s),
		Q: qq, D: table.DB(tr, ts),
	}
}

// firstCol returns the (single) output column of e for renaming.
func firstCol(e algebra.Expr) []string {
	cols, err := e.Schema()
	if err != nil || len(cols) != 1 {
		panic(fmt.Sprintf("reduce: expected single column, got %v (%v)", cols, err))
	}
	return cols
}

// ContQoFromDNF is the Theorem 4.2(4) reduction (Fig. 9): containment of a
// positive existential view of Codd-tables in a Codd-table is
// coNP-complete.
//
//	T0(Ro) = {(i,j,1) : x_j ∈ clause i} ∪ {(i,j,0) : ¬x_j ∈ clause i}
//	T0(So) = {(j, u_j)}
//	q0     = {x | ∃y,z (Ro(x,y,z) ∧ So(y,z)) ∨ x = 0}
//	T      = {z_1, …, z_p} (p = number of clauses, distinct variables)
//
// σ0(u_j) = 0 encodes x_j true. q0 emits clause i iff some member of i is
// falsified, plus the marker 0; a falsifying assignment makes q0 emit all
// p clauses plus the marker — p+1 distinct values, more than the p-row
// table T can produce. H is a tautology iff q0(rep(T0)) ⊆ rep(T).
func ContQoFromDNF(f sat.DNF) ContInstance {
	t0r := table.New("Ro", 3)
	for i, c := range f.Clauses {
		for _, l := range c {
			sign := 1
			if l.Neg {
				sign = 0
			}
			t0r.AddTuple(kint(i+1), kint(l.Var+1), kint(sign))
		}
	}
	t0s := table.New("So", 2)
	for j := 0; j < f.NVars; j++ {
		t0s.AddTuple(kint(j+1), vn("u", j+1))
	}
	falsified := algebra.Project{
		E:    algebra.Join{L: algebra.Scan("Ro", "x", "y", "z"), R: algebra.Scan("So", "y", "z")},
		Cols: []string{"x"},
	}
	q0 := query.NewAlgebra("fig9", query.Out{Name: "Q", Expr: algebra.Union{
		L: falsified,
		R: algebra.Values("x", "0"),
	}})

	t := table.New("Q", 1)
	for k := range f.Clauses {
		t.AddTuple(vn("zq", k+1))
	}
	return ContInstance{
		Q0: q0, D0: table.DB(t0r, t0s),
		Q: query.Identity{}, D: table.DB(t),
	}
}

// ContQoETableFromForallExists is the Theorem 4.2(5) reduction (Fig. 10):
// containment of a positive existential view of Codd-tables in an e-table
// is Π₂ᵖ-complete.
//
//	T0(Ro) = {(i,j,k) : i ∈ [1..p], j,k ∈ {0,1}}   (ground)
//	T0(So) = {(i, y_i, z_i) : i ∈ [1..n]}
//	q0 = (identity on Ro,
//	      {(x,1) | ∃y So(x,y,y)} ∪ {(x,0) | ∃y,z So(x,y,z)})
//	T(R) = {(i,1,0), (i,0,1)} ∪ {(i,u_j,1) : x_j ∈ cᵢ} ∪
//	       {(i,u_j,0) : ¬x_j ∈ cᵢ} ∪ {(i,zz_i,zz_i)}
//	T(S) = {(i,u_i), (i,0) : i ∈ [1..n]}
//
// σ0(y_i) = σ0(z_i) encodes x_i true. The e-table T shares the u variables
// between R and S (the incorporated-equalities idiom for vectors). The ∀∃
// answer is yes iff q0(rep(T0)) ⊆ rep(T).
func ContQoETableFromForallExists(q sat.ForallExists) ContInstance {
	p := len(q.Clauses)
	n := q.NX
	t0r := table.New("R", 3)
	for i := 1; i <= p; i++ {
		for j := 0; j <= 1; j++ {
			for k := 0; k <= 1; k++ {
				t0r.AddTuple(kint(i), kint(j), kint(k))
			}
		}
	}
	t0s := table.New("S", 3)
	for i := 1; i <= n; i++ {
		t0s.AddTuple(kint(i), vn("y", i), vn("zz", i))
	}
	q01 := algebra.Scan("R", "a", "b", "c")
	eqBranch := algebra.Project{
		E: algebra.Join{
			L: algebra.Where(algebra.Scan("S", "x", "y", "z"), algebra.EqP(algebra.Col("y"), algebra.Col("z"))),
			R: algebra.Values("w", "1"),
		},
		Cols: []string{"x", "w"},
	}
	anyBranch := algebra.Project{
		E:    algebra.Join{L: algebra.Scan("S", "x", "y", "z"), R: algebra.Values("w", "0")},
		Cols: []string{"x", "w"},
	}
	q0 := query.NewAlgebra("fig10",
		query.Out{Name: "R", Expr: q01},
		query.Out{Name: "S", Expr: algebra.Union{L: eqBranch, R: anyBranch}},
	)

	tr := table.New("R", 3)
	for k, c := range q.Clauses {
		i := k + 1
		tr.AddTuple(kint(i), kint(1), kint(0))
		tr.AddTuple(kint(i), kint(0), kint(1))
		for _, l := range c {
			sign := 1
			if l.Neg {
				sign = 0
			}
			tr.AddTuple(kint(i), vn("u", l.Var+1), kint(sign))
		}
		tr.AddTuple(kint(i), vn("zt", i), vn("zt", i))
	}
	ts := table.New("S", 2)
	for i := 1; i <= n; i++ {
		ts.AddTuple(kint(i), vn("u", i))
		ts.AddTuple(kint(i), kint(0))
	}
	return ContInstance{
		Q0: q0, D0: table.DB(t0r, t0s),
		Q: query.Identity{}, D: table.DB(tr, ts),
	}
}

// ContCTableFromForallExists is the Theorem 4.2(3) variant: containment of
// a c-table in an e-table. Following the paper's proof, it applies the
// Theorem 4.2(5) query q0 to its Codd-table T0 with the lifted algebra,
// producing an equivalent c-table subset side (polynomial, by [10]).
func ContCTableFromForallExists(q sat.ForallExists) (ContInstance, error) {
	base := ContQoETableFromForallExists(q)
	l, ok := query.AsLiftable(base.Q0)
	if !ok {
		return ContInstance{}, fmt.Errorf("reduce: fig10 query must be liftable")
	}
	lifted, err := l.EvalLifted(base.D0)
	if err != nil {
		return ContInstance{}, err
	}
	return ContInstance{
		Q0: query.Identity{}, D0: lifted,
		Q: base.Q, D: base.D,
	}, nil
}
