package experiments

import (
	"fmt"

	"pw/internal/algebra"
	"pw/internal/datalog"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/value"
)

// Thm51Codd sweeps unbounded possibility on Codd-tables (Theorem 5.1(1)):
// the matching-based algorithm must scale polynomially.
func Thm51Codd(full bool) *Report {
	r := &Report{ID: "T51", Title: "Thm 5.1(1) — POSS(∗,−) on Codd-tables (matching)"}
	r.AddRow("rows", "|P|", "answer", "time")
	sizes := []int{64, 128, 256, 512}
	if full {
		sizes = append(sizes, 1024, 2048)
	}
	for _, n := range sizes {
		tb := gen.CoddTable(int64(n)+5, "T", n, 3, 2*n, 0.3)
		d := table.DB(tb)
		w, ok := gen.MemberInstance(int64(n), d)
		if !ok {
			continue
		}
		// Take roughly half of the world's facts as P.
		p := rel.NewInstance()
		pr := p.EnsureRelation("T", 3)
		for i, f := range w.Relation("T").Facts() {
			if i%2 == 0 {
				pr.Add(f)
			}
		}
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Possible(p, query.Identity{}, d) })
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", p.Size()),
			fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	return r
}

// Thm52Bounded sweeps bounded possibility of a fixed positive existential
// query on c-tables (Theorem 5.2(1)): the lifted-algebra route must scale
// polynomially in the table size for fixed |P|.
func Thm52Bounded(full bool) *Report {
	r := &Report{ID: "T52", Title: "Thm 5.2(1) — POSS(k, pos-exist) on c-tables via lifted algebra"}
	r.AddRow("rows", "answer", "time")
	q := query.NewAlgebra("sweep",
		query.Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("T", "a", "b"), algebra.EqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
	sizes := []int{32, 64, 128, 256}
	if full {
		sizes = append(sizes, 512, 1024)
	}
	for _, n := range sizes {
		tb := gen.CTable(int64(n)+3, "T", n, 2, 8, 4, 0.4, 0.3)
		d := table.DB(tb)
		p := rel.NewInstance()
		p.EnsureRelation("Q", 1).AddRow("c1")
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Possible(p, q, d) })
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	r.AddNote("k = 1 fixed; the c-table grows — Theorem 5.2(1) predicts polynomial time")
	return r
}

// Thm53Frozen sweeps certainty of a DATALOG query on g-tables (Theorem
// 5.3(1)): frozen-instance evaluation must scale with the datalog
// evaluation, not with the number of worlds.
func Thm53Frozen(full bool) *Report {
	r := &Report{ID: "T53", Title: "Thm 5.3(1) — CERT(∗, datalog) on g-tables via frozen evaluation"}
	r.AddRow("rows", "answer", "time")
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("x"), value.Var("y"))),
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("z")),
			datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("y"), value.Var("z"))),
	}}
	q := query.NewDatalog("tc", prog, "TC")
	sizes := []int{16, 32, 64}
	if full {
		sizes = append(sizes, 128, 256)
	}
	for _, n := range sizes {
		// A chain c0→c1→…→cn with a few null-valued extra edges: the chain
		// closure is certain.
		tb := table.New("T", 2)
		for i := 0; i < n; i++ {
			tb.AddTuple(value.Const(fmt.Sprintf("c%d", i)), value.Const(fmt.Sprintf("c%d", i+1)))
		}
		for i := 0; i < n/4; i++ {
			tb.AddTuple(value.Const(fmt.Sprintf("c%d", i)), value.Var(fmt.Sprintf("x%d", i)))
		}
		d := table.DB(tb)
		p := rel.NewInstance()
		p.EnsureRelation("TC", 2).AddRow("c0", fmt.Sprintf("c%d", n))
		var ans bool
		dur := timeIt(func() { ans, _ = decide.Options{}.Certain(p, q, d) })
		r.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%v", ans), fmtDur(dur))
	}
	r.AddNote("the number of worlds is infinite; the frozen evaluation never enumerates them")
	return r
}
