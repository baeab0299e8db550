package experiments

import (
	"fmt"
	"time"

	"pw/internal/cond"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/graph"
	"pw/internal/query"
	"pw/internal/reduce"
	"pw/internal/rel"
	"pw/internal/sat"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/worlds"
)

func vv(n string) sym.ID { return sym.Var(n) }
func kk(n string) sym.ID { return sym.Const(n) }

// fig1Tables builds the five representations Ta–Te of Fig. 1.
func fig1Tables() map[string]*table.Table {
	ta := table.New("T", 3)
	ta.AddTuple(kk("0"), kk("1"), vv("x"))
	ta.AddTuple(vv("y"), vv("z"), kk("1"))
	ta.AddTuple(kk("2"), kk("0"), vv("v"))

	tb := table.New("T", 3)
	tb.AddTuple(kk("0"), kk("1"), vv("x"))
	tb.AddTuple(vv("x"), vv("z"), kk("1"))
	tb.AddTuple(kk("2"), kk("0"), vv("z"))

	tc := table.New("T", 3)
	tc.Global = cond.Conj(cond.NeqAtom(vv("x"), kk("0")), cond.NeqAtom(vv("y"), vv("z")))
	tc.AddTuple(kk("0"), kk("1"), vv("x"))
	tc.AddTuple(vv("y"), vv("z"), kk("1"))
	tc.AddTuple(kk("2"), kk("0"), vv("v"))

	td := table.New("T", 3)
	td.Global = cond.Conj(cond.NeqAtom(vv("x"), vv("z")))
	td.AddTuple(kk("0"), kk("1"), vv("x"))
	td.AddTuple(vv("x"), vv("z"), kk("1"))
	td.AddTuple(kk("2"), kk("0"), vv("z"))

	te := table.New("T", 2)
	te.Global = cond.Conj(cond.NeqAtom(vv("x"), kk("1")), cond.NeqAtom(vv("y"), kk("2")))
	te.Add(table.Row{Values: sym.Tuple{kk("0"), kk("1")}, Cond: cond.Conj(cond.EqAtom(vv("z"), vv("z")))})
	te.Add(table.Row{Values: sym.Tuple{kk("0"), vv("x")}, Cond: cond.Conj(cond.EqAtom(vv("y"), kk("0")))})
	te.Add(table.Row{Values: sym.Tuple{vv("y"), vv("x")}, Cond: cond.Conj(cond.NeqAtom(vv("x"), vv("y")))})

	return map[string]*table.Table{"Ta": ta, "Tb": tb, "Tc": tc, "Td": td, "Te": te}
}

// Fig1 reproduces Fig. 1: each representation's kind and its instance
// count over the canonical domain, plus the Example 2.1 check.
func Fig1() *Report {
	r := &Report{ID: "F1", Title: "Fig. 1 — the representation hierarchy"}
	r.AddRow("table", "kind", "rows", "worlds(canonical)")
	order := []string{"Ta", "Tb", "Tc", "Td", "Te"}
	ts := fig1Tables()
	for _, name := range order {
		t := ts[name]
		d := table.DB(t)
		r.AddRow(name, t.Kind().String(),
			fmt.Sprintf("%d", len(t.Rows)),
			fmt.Sprintf("%d", worlds.Count(d)))
	}
	// Example 2.1: σx=2, σy=3, σz=0, σv=5 maps Ta to Ia.
	ia := rel.NewInstance()
	rr := ia.EnsureRelation("T", 3)
	rr.AddRow("0", "1", "2")
	rr.AddRow("3", "0", "1")
	rr.AddRow("2", "0", "5")
	member, err := decide.Options{}.Membership(ia, query.Identity{}, table.DB(ts["Ta"]))
	if err != nil {
		r.AddNote("example 2.1 error: %v", err)
	} else {
		r.AddNote("example 2.1: Ia ∈ rep(Ta) = %v (paper: member, σ = {x→2,y→3,z→0,v→5})", member)
	}
	return r
}

// Fig3 reproduces the Theorem 3.1(1) algorithm: the paper's example plus a
// scaling sweep demonstrating polynomial growth of MEMB on Codd-tables.
func Fig3(full bool) *Report {
	r := &Report{ID: "F3", Title: "Fig. 3 — MEMB on Codd-tables via bipartite matching"}
	r.AddRow("rows", "facts", "answer", "time")
	sizes := []int{64, 128, 256, 512}
	if full {
		sizes = append(sizes, 1024, 2048, 4096)
	}
	var last time.Duration
	var ratioNote string
	for _, n := range sizes {
		tb := gen.CoddTable(int64(n), "T", n, 3, 2*n, 0.3)
		d := table.DB(tb)
		i, ok := gen.MemberInstance(int64(n), d)
		if !ok {
			continue
		}
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Membership(i, query.Identity{}, d) })
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", i.Size()),
			fmt.Sprintf("%v", ans), fmtDur(dur))
		if last > 0 {
			ratioNote = fmt.Sprintf("last doubling ratio %.1f× → %s",
				float64(dur)/float64(last), verdict(float64(dur)/float64(last)))
		}
		last = dur
	}
	if ratioNote != "" {
		r.AddNote("%s (Theorem 3.1(1): PTIME)", ratioNote)
	}
	return r
}

// Fig4 reproduces the 3-colorability reductions of Fig. 4 on the paper's
// example graph and checks equivalence on a family of known graphs.
func Fig4() *Report {
	r := &Report{ID: "F4", Title: "Fig. 4 — 3-colorability reductions (Thm 3.1(2,3,4))"}
	r.AddRow("graph", "3COL", "MEMB e-table", "MEMB i-table", "MEMB view")
	gs := []struct {
		name string
		g    *graph.G
	}{
		{"paper Fig.4(a)", graph.Paper()},
		{"C5", graph.Cycle(5)},
		{"K3", graph.Complete(3)},
		{"K4", graph.Complete(4)},
	}
	for _, tc := range gs {
		e := reduce.MembETableFrom3Col(tc.g)
		i := reduce.MembITableFrom3Col(tc.g)
		v := reduce.MembViewFrom3Col(tc.g)
		ea, _ := decide.Options{}.Membership(e.I0, e.Q0(), e.D)
		ia, _ := decide.Options{}.Membership(i.I0, i.Q0(), i.D)
		va, _ := decide.Options{}.Membership(v.I0, v.Q, v.D)
		r.AddRow(tc.name, fmt.Sprintf("%v", tc.g.Colorable3()),
			fmt.Sprintf("%v", ea), fmt.Sprintf("%v", ia), fmt.Sprintf("%v", va))
	}
	r.AddNote("all three columns must equal the 3COL column (reduction correctness)")
	return r
}

// Fig5 shows the Fig. 5 example formulas and their ground-truth status.
func Fig5() *Report {
	r := &Report{ID: "F5", Title: "Fig. 5 — example formulas"}
	r.AddRow("formula", "property", "answer")
	c := sat.PaperCNF()
	d := sat.PaperDNF()
	q := sat.PaperForallExists()
	r.AddRow("3CNF (Fig. 5 left)", "satisfiable?", fmt.Sprintf("%v", c.Satisfiable()))
	r.AddRow("3DNF (Fig. 5 right)", "tautology?", fmt.Sprintf("%v", d.Tautology()))
	r.AddRow("∀∃3CNF (X={x1,x2})", "valid?", fmt.Sprintf("%v", q.Valid()))
	return r
}

// Fig6 reproduces the Theorem 3.2(4) reduction (UNIQ of a view).
func Fig6(full bool) *Report {
	r := &Report{ID: "F6", Title: "Fig. 6 — UNIQ(q0) from non-3-colorability (Thm 3.2(4))"}
	r.AddRow("graph", "non-3COL", "UNIQ", "time")
	gs := []struct {
		name string
		g    *graph.G
	}{
		{"paper Fig.4(a)", graph.Paper()},
		{"K3", graph.Complete(3)},
		{"K4", graph.Complete(4)},
	}
	if full {
		gs = append(gs, struct {
			name string
			g    *graph.G
		}{"C7", graph.Cycle(7)})
	}
	for _, tc := range gs {
		inst := reduce.UniqViewFromGraph(tc.g)
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Uniqueness(inst.Q0, inst.D0, inst.I) })
		r.AddRow(tc.name, fmt.Sprintf("%v", !tc.g.Colorable3()),
			fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	return r
}

// Fig7 reproduces the Theorem 4.2(1) reduction: table ⊆ i-table is the
// Π₂ᵖ ceiling.
func Fig7(full bool) *Report {
	r := &Report{ID: "F7", Title: "Fig. 7 — CONT(table ⊆ i-table) from ∀∃3CNF (Thm 4.2(1))"}
	return contReport(r, reduce.ContITableFromForallExists, full)
}

// Fig8 reproduces the Theorem 4.2(2) reduction (table ⊆ view).
func Fig8(full bool) *Report {
	r := &Report{ID: "F8", Title: "Fig. 8 — CONT(table ⊆ view) from ∀∃3CNF (Thm 4.2(2))"}
	return contReport(r, reduce.ContViewFromForallExists, full)
}

// Fig10 reproduces the Theorem 4.2(5) reduction (view ⊆ e-table).
func Fig10(full bool) *Report {
	r := &Report{ID: "F10", Title: "Fig. 10 — CONT(view ⊆ e-table) from ∀∃3CNF (Thm 4.2(5))"}
	return contReport(r, reduce.ContQoETableFromForallExists, full)
}

func contReport(r *Report, build func(sat.ForallExists) reduce.ContInstance, full bool) *Report {
	r.AddRow("instance", "∀∃ valid", "CONT", "time")
	qs := []struct {
		name string
		q    sat.ForallExists
	}{
		{"∀x∃y (x∨y)(¬x∨¬y)", sat.ForallExists{NX: 1, NY: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 1}, {Var: 1}},
			{{Var: 0, Neg: true}, {Var: 1, Neg: true}, {Var: 1, Neg: true}},
		}}},
		{"∀x∃y (x)", sat.ForallExists{NX: 1, NY: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
		}}},
	}
	if full {
		qs = append(qs, struct {
			name string
			q    sat.ForallExists
		}{"paper Fig. 5 (X={x1,x2})", sat.PaperForallExists()})
	}
	for _, tc := range qs {
		inst := build(tc.q)
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D) })
		r.AddRow(tc.name, fmt.Sprintf("%v", tc.q.Valid()), fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	r.AddNote("CONT must equal the validity column; growth across sizes is exponential (Π₂ᵖ-hard)")
	return r
}

// Fig9 reproduces the Theorem 4.2(4) reduction (view ⊆ table, coNP).
func Fig9(full bool) *Report {
	r := &Report{ID: "F9", Title: "Fig. 9 — CONT(view ⊆ table) from 3DNF-TAUT (Thm 4.2(4))"}
	r.AddRow("formula", "tautology", "CONT", "time")
	fs := []struct {
		name string
		f    sat.DNF
	}{
		{"x∨¬x", sat.DNF{NVars: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
			{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
		}}},
		{"single clause", sat.DNF{NVars: 2, Clauses: []sat.Clause3{{{Var: 0}, {Var: 1}, {Var: 0}}}}},
	}
	if full {
		fs = append(fs, struct {
			name string
			f    sat.DNF
		}{"paper Fig. 5 DNF", sat.PaperDNF()})
	}
	for _, tc := range fs {
		inst := reduce.ContQoFromDNF(tc.f)
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D) })
		r.AddRow(tc.name, fmt.Sprintf("%v", tc.f.Tautology()), fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	return r
}

// Fig11 reproduces the Theorem 5.1(2,3) possibility reductions.
func Fig11(full bool) *Report {
	r := &Report{ID: "F11", Title: "Fig. 11 — POSS from 3CNF-SAT (Thm 5.1(2,3))"}
	r.AddRow("formula", "SAT", "POSS e-table", "POSS i-table", "time(e)", "time(i)")
	fs := []struct {
		name string
		f    sat.CNF
	}{
		{"paper Fig. 5 CNF", sat.PaperCNF()},
		{"unsat x∧¬x", sat.CNF{NVars: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
			{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
		}}},
	}
	if full {
		fs = append(fs, struct {
			name string
			f    sat.CNF
		}{"random n=6 m=10", sat.RandomCNF(newRng(99), 6, 10)})
	}
	for _, tc := range fs {
		e := reduce.PossETableFrom3SAT(tc.f)
		i := reduce.PossITableFrom3SAT(tc.f)
		var ea, ia bool
		de := timeIt(func() { ea, _ = decide.Options{}.Possible(e.P, e.Q, e.D) })
		di := timeIt(func() { ia, _ = decide.Options{}.Possible(i.P, i.Q, i.D) })
		r.AddRow(tc.name, fmt.Sprintf("%v", tc.f.Satisfiable()),
			fmt.Sprintf("%v", ea), fmt.Sprintf("%v", ia), fmtDur(de), fmtDur(di))
	}
	return r
}

// Fig12 reproduces the Theorem 5.2(3) DATALOG possibility gadget.
func Fig12(full bool) *Report {
	r := &Report{ID: "F12", Title: "Fig. 12 — POSS(1, datalog) from 3CNF-SAT (Thm 5.2(3))"}
	r.AddRow("formula", "SAT", "POSS(1,q)", "time")
	fs := []struct {
		name string
		f    sat.CNF
	}{
		{"unsat x∧¬x", sat.CNF{NVars: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
			{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
		}}},
		{"(x∨y)", sat.CNF{NVars: 2, Clauses: []sat.Clause3{{{Var: 0}, {Var: 1}, {Var: 1}}}}},
	}
	if full {
		fs = append(fs, struct {
			name string
			f    sat.CNF
		}{"random n=3 m=4", sat.RandomCNF(newRng(7), 3, 4)})
	}
	for _, tc := range fs {
		inst := reduce.PossDatalogFrom3SAT(tc.f)
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Possible(inst.P, inst.Q, inst.D) })
		r.AddRow(tc.name, fmt.Sprintf("%v", tc.f.Satisfiable()), fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	r.AddNote("the datalog query is fixed; blow-up comes from the nulls x_i choosing t_i/f_i")
	return r
}
