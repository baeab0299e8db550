package reduce

import (
	"fmt"

	"pw/internal/cond"
	"pw/internal/datalog"
	"pw/internal/fo"
	"pw/internal/graph"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sat"
	"pw/internal/sym"
	"pw/internal/table"
)

// PossInstance bundles a possibility question: ∃I ∈ Q(rep(D)) ⊇ P?
type PossInstance struct {
	P *rel.Instance
	Q query.Query
	D *table.Database
}

// PossETableFrom3SAT is the Theorem 5.1(2) reduction (Fig. 11(b)): an
// e-table of arity 3 with, per variable j, the complementary rows
// (j, u_j, y_j) and (j, y_j, u_j), and per clause i the member rows
// (m+i, m+i, u_j) for x_j ∈ cᵢ and (m+i, m+i, y_j) for ¬x_j ∈ cᵢ (m is
// the variable count). The fact set asks each variable row to realise
// both (j,0,1) and (j,1,0) — forcing {u_j, y_j} = {0,1} — and each clause
// to realise (m+i, m+i, 1): a satisfied member. H is satisfiable iff P is
// possible.
func PossETableFrom3SAT(f sat.CNF) PossInstance {
	m := f.NVars
	t := table.New("T", 3)
	u := func(j int) sym.ID { return vn("u", j+1) }
	y := func(j int) sym.ID { return vn("y", j+1) }
	for j := 0; j < m; j++ {
		t.AddTuple(kint(j+1), u(j), y(j))
		t.AddTuple(kint(j+1), y(j), u(j))
	}
	for i, c := range f.Clauses {
		id := kint(m + i + 1)
		for _, l := range c {
			if l.Neg {
				t.AddTuple(id, id, y(l.Var))
			} else {
				t.AddTuple(id, id, u(l.Var))
			}
		}
	}
	p := rel.NewInstance()
	pr := p.EnsureRelation("T", 3)
	for j := 1; j <= m; j++ {
		pr.AddRow(sint(j), "0", "1")
		pr.AddRow(sint(j), "1", "0")
	}
	for i := range f.Clauses {
		id := sint(m + i + 1)
		pr.AddRow(id, id, "1")
	}
	return PossInstance{P: p, Q: query.Identity{}, D: table.DB(t)}
}

// PossITableFrom3SAT is the Theorem 5.1(3) reduction (Fig. 11(a)): an
// i-table of arity 2 with one row (i, x_{i,k}) per member position and
// global inequalities between complementary positions. The fact set asks
// each clause to realise (i, 1): H is satisfiable iff P is possible.
func PossITableFrom3SAT(f sat.CNF) PossInstance {
	t := table.New("T", 2)
	xik := func(i, k int) sym.ID { return sym.Var(fmt.Sprintf("x%d_%d", i+1, k+1)) }
	for i := range f.Clauses {
		for k := 0; k < 3; k++ {
			t.AddTuple(kint(i+1), xik(i, k))
		}
	}
	for i, ci := range f.Clauses {
		for k, lk := range ci {
			for j, cj := range f.Clauses {
				for l, ll := range cj {
					if lk.Var == ll.Var && !lk.Neg && ll.Neg {
						t.Global = append(t.Global, cond.NeqAtom(xik(i, k), xik(j, l)))
					}
				}
			}
		}
	}
	p := rel.NewInstance()
	pr := p.EnsureRelation("T", 2)
	for i := range f.Clauses {
		pr.AddRow(sint(i+1), "1")
	}
	return PossInstance{P: p, Q: query.Identity{}, D: table.DB(t)}
}

// PossViewFrom3Col is the Theorem 5.1(4) adaptation of the Fig. 4(d)
// construction: G is 3-colorable iff some world of q(rep(T)) contains I0
// (possibility instead of exact membership; the paper notes the same
// construction works).
func PossViewFrom3Col(g *graph.G) PossInstance {
	mv := MembViewFrom3Col(g)
	return PossInstance{P: mv.I0, Q: mv.Q, D: mv.D}
}

// dnfOccurrenceTable is the arity-4 Codd-table shared by the Theorem
// 5.2(2) and 5.3(2) constructions: one row
//
//	(clause i, z_{i,k}, variable j, sign s)
//
// per literal occurrence, with a distinct variable z_{i,k} per occurrence.
// A valuation σ marks occurrence (i,k) "satisfied" by σ(z_{i,k}) = 1.
//
// The paper's rendering of this table and its query is typographically
// corrupted in the available text; this reconstruction keeps the theorem
// statements intact: the variable-identity column j lets a first-order
// query check that the per-occurrence marks are mutually consistent (same
// variable, same sign ⇒ same mark; opposite signs ⇒ opposite marks), i.e.
// that σ encodes a truth assignment.
func dnfOccurrenceTable(f sat.DNF) *table.Database {
	t := table.New("R", 4)
	for i, c := range f.Clauses {
		for k, l := range c {
			sign := 1
			if l.Neg {
				sign = 0
			}
			t.AddTuple(kint(i+1), sym.Var(fmt.Sprintf("z%d_%d", i+1, k+1)),
				kint(l.Var+1), kint(sign))
		}
	}
	return table.DB(t)
}

// dnfStatusFormula builds ψ = BAD ∨ SAT over the occurrence table:
//
//	BAD — σ does not encode a truth assignment: some mark outside {0,1},
//	      or two occurrences of one variable marked inconsistently;
//	SAT — some clause has every occurrence marked satisfied (the DNF
//	      clause is true).
//
// For any σ, 1 ∈ q'(σT) with q' = {1 | ψ} iff σ is not an assignment or
// its assignment satisfies H. Hence H is a tautology iff 1 is certain in
// q'(rep(T)), and H is a non-tautology iff 1 is possible in {1 | ¬ψ}.
func dnfStatusFormula() fo.Formula {
	va := sym.Var
	notBool := fo.Exists{Vars: []string{"c", "m", "j", "s"}, F: fo.And{
		fo.At("R", va("c"), va("m"), va("j"), va("s")),
		fo.Neq(va("m"), sym.Const("0")),
		fo.Neq(va("m"), sym.Const("1")),
	}}
	inconsistent := fo.Exists{Vars: []string{"c", "m", "j", "s", "c2", "m2", "s2"}, F: fo.And{
		fo.At("R", va("c"), va("m"), va("j"), va("s")),
		fo.At("R", va("c2"), va("m2"), va("j"), va("s2")),
		fo.Or{
			fo.And{fo.Equal(va("s"), va("s2")), fo.Neq(va("m"), va("m2"))},
			fo.And{fo.Not{F: fo.Equal(va("s"), va("s2"))}, fo.Equal(va("m"), va("m2"))},
		},
	}}
	clauseSat := fo.Exists{Vars: []string{"c", "m", "j", "s"}, F: fo.And{
		fo.At("R", va("c"), va("m"), va("j"), va("s")),
		fo.Not{F: fo.Exists{Vars: []string{"m2", "j2", "s2"}, F: fo.And{
			fo.At("R", va("c"), va("m2"), va("j2"), va("s2")),
			fo.Neq(va("m2"), sym.Const("1")),
		}}},
	}}
	return fo.Or{notBool, inconsistent, clauseSat}
}

// PossFOFromDNF is the Theorem 5.2(2) reduction: a first-order query q
// with POSS(1, q) NP-complete on Codd-tables. The fact (1) is possible in
// q(rep(T)) iff H is NOT a tautology.
func PossFOFromDNF(f sat.DNF) PossInstance {
	q := query.NewFO("thm52-2", query.FOOut{Name: "Q", Q: fo.Query{
		Head: []string{"w"},
		Body: fo.And{fo.Equal(sym.Var("w"), sym.Const("1")), fo.Not{F: dnfStatusFormula()}},
	}})
	p := rel.NewInstance()
	p.EnsureRelation("Q", 1).AddRow("1")
	return PossInstance{P: p, Q: q, D: dnfOccurrenceTable(f)}
}

// CertInstance bundles a certainty question: ∀I ∈ Q(rep(D)): P ⊆ I?
type CertInstance struct {
	P *rel.Instance
	Q query.Query
	D *table.Database
}

// CertFOFromDNF is the Theorem 5.3(2) reduction: a first-order query q'
// with CERT(1, q') coNP-complete on Codd-tables. The fact (1) is certain
// in q'(rep(T)) iff H is a tautology.
func CertFOFromDNF(f sat.DNF) CertInstance {
	q := query.NewFO("thm53-2", query.FOOut{Name: "Q", Q: fo.Query{
		Head: []string{"w"},
		Body: fo.And{fo.Equal(sym.Var("w"), sym.Const("1")), dnfStatusFormula()},
	}})
	p := rel.NewInstance()
	p.EnsureRelation("Q", 1).AddRow("1")
	return CertInstance{P: p, Q: q, D: dnfOccurrenceTable(f)}
}

// CertCTableFromDNF is the Theorem 5.3(3) reduction (same construction as
// Theorem 3.2(3)): on the clause-conditioned c-table, the fact (1) is
// certain iff H is a tautology.
func CertCTableFromDNF(f sat.DNF) CertInstance {
	u := UniqCTableFromDNF(f)
	return CertInstance{P: u.I, Q: query.Identity{}, D: u.D0}
}

// PossDatalogFrom3SAT is the Theorem 5.2(3) reduction (Fig. 12): a DATALOG
// query q with POSS(1, q) NP-complete on Codd-tables. The gadget graph has
// per-variable constants t_i, f_i, a_i, b_i, per-clause constants h_j, the
// root a and the target 1; the nulls x_i choose t_i or f_i. The derivation
//
//	Q(x) :- R0(x).
//	Q(x) :- Q(y), Q(z), R1(y,x), R2(z,x).
//
// reaches 1 iff every b_i (one per variable: a committed choice) and every
// h_j (one per clause: a satisfied literal) is derivable: H is satisfiable
// iff the fact Q(1) is possible.
func PossDatalogFrom3SAT(f sat.CNF) PossInstance {
	n := f.NVars
	m := len(f.Clauses)
	tC := func(i int) string { return "t" + sint(i) }
	fC := func(i int) string { return "f" + sint(i) }
	aC := func(i int) string { return "a" + sint(i) }
	bC := func(i int) string { return "b" + sint(i) }
	hC := func(j int) string { return "h" + sint(j) }
	xV := func(i int) sym.ID { return vn("x", i) }
	kc := sym.Const

	r0 := table.New("R0", 1)
	r0.AddTuple(kc("a"))
	r1 := table.New("R1", 2)
	r2 := table.New("R2", 2)
	for i := 1; i <= n; i++ {
		r1.AddTuple(kc("a"), kc(tC(i)))
		r1.AddTuple(kc("a"), kc(fC(i)))
		r1.AddTuple(kc("a"), kc(aC(i)))
		r2.AddTuple(kc(tC(i)), kc(aC(i)))
		r2.AddTuple(kc(fC(i)), kc(aC(i)))
		r2.AddTuple(kc(aC(i)), kc(bC(i)))
	}
	r1.AddTuple(kc("a"), kc(bC(1)))
	for i := 1; i < n; i++ {
		r1.AddTuple(kc(bC(i)), kc(bC(i+1)))
	}
	r1.AddTuple(kc(bC(n)), kc("1"))
	r2.AddTuple(kc("a"), xV(1))
	for i := 1; i < n; i++ {
		r2.AddTuple(kc(aC(i)), xV(i+1))
	}
	r2.AddTuple(kc("a"), kc(hC(1)))
	for j := 1; j < m; j++ {
		r2.AddTuple(kc(hC(j)), kc(hC(j+1)))
	}
	r2.AddTuple(kc(hC(m)), kc("1"))
	for j, c := range f.Clauses {
		for _, l := range c {
			if l.Neg {
				r1.AddTuple(kc(fC(l.Var+1)), kc(hC(j+1)))
			} else {
				r1.AddTuple(kc(tC(l.Var+1)), kc(hC(j+1)))
			}
		}
	}

	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("Q", sym.Var("qx")), datalog.At("R0", sym.Var("qx"))),
		datalog.R(datalog.At("Q", sym.Var("qx")),
			datalog.At("Q", sym.Var("qy")), datalog.At("Q", sym.Var("qz")),
			datalog.At("R1", sym.Var("qy"), sym.Var("qx")),
			datalog.At("R2", sym.Var("qz"), sym.Var("qx"))),
	}}
	q := query.NewDatalog("fig12", prog, "Q")

	p := rel.NewInstance()
	p.EnsureRelation("Q", 1).AddRow("1")
	return PossInstance{P: p, Q: q, D: table.DB(r0, r1, r2)}
}
