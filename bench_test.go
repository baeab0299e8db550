// Benchmarks regenerating the paper's figures and the DESIGN.md ablations.
// One benchmark per figure/theorem (see DESIGN.md's per-experiment index);
// run them all with:
//
//	go test -bench=. -benchmem
//
// The tracked perf probes are defined once, in the internal/experiments
// registry, and run here as BenchmarkProbe/<name>:
//
//	go test -run x -bench '^BenchmarkProbe$' -benchtime 1x -benchmem .
//
// The absolute numbers are machine-dependent; what must reproduce is the
// shape (Fig. 2): PTIME cells scale polynomially with the sub-benchmark
// size, hard cells blow up with the reduction family parameter.
package pw

import (
	"fmt"
	"testing"

	"pw/internal/algebra"
	"pw/internal/datalog"
	"pw/internal/decide"
	"pw/internal/experiments"
	"pw/internal/gen"
	"pw/internal/graph"
	"pw/internal/matching"
	"pw/internal/query"
	"pw/internal/reduce"
	"pw/internal/rel"
	"pw/internal/sat"
	"pw/internal/table"
	"pw/internal/value"
	"pw/internal/worlds"
)

// --- Fig. 1: representation hierarchy (semantics microbenchmark) ---

func BenchmarkFig1_Hierarchy(b *testing.B) {
	tb := NewTable("T", 3)
	tb.AddTuple(Const("0"), Const("1"), Var("x"))
	tb.AddTuple(Var("y"), Var("z"), Const("1"))
	tb.AddTuple(Const("2"), Const("0"), Var("v"))
	d := NewDatabase(tb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CountWorlds(d) == 0 {
			b.Fatal("no worlds")
		}
	}
}

// --- Fig. 2 hard cells / Fig. 4 / Thm 3.1(2,3,4): MEMB reductions ---

func benchMembReduction(b *testing.B, build func(*graph.G) reduce.MembInstance, n int) {
	g := graph.Cycle(n)
	inst := build(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Membership(inst.I0, inst.Q0(), inst.D)
		if err != nil || !yes {
			b.Fatalf("cycle is 3-colorable: %v %v", yes, err)
		}
	}
}

func BenchmarkFig4_MembETable_C5(b *testing.B) {
	benchMembReduction(b, reduce.MembETableFrom3Col, 5)
}
func BenchmarkFig4_MembETable_C9(b *testing.B) {
	benchMembReduction(b, reduce.MembETableFrom3Col, 9)
}
func BenchmarkFig4_MembITable_C5(b *testing.B) {
	benchMembReduction(b, reduce.MembITableFrom3Col, 5)
}
func BenchmarkFig4_MembITable_C9(b *testing.B) {
	benchMembReduction(b, reduce.MembITableFrom3Col, 9)
}

func BenchmarkFig4_MembView_Paper(b *testing.B) {
	inst := reduce.MembViewFrom3Col(graph.Paper())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Membership(inst.I0, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("paper graph is 3-colorable: %v %v", yes, err)
		}
	}
}

// --- Fig. 5: formula substrate ---

func BenchmarkFig5_Formulas(b *testing.B) {
	c := sat.PaperCNF()
	d := sat.PaperDNF()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Satisfiable() || d.Tautology() {
			b.Fatal("paper formula answers changed")
		}
	}
}

// --- Fig. 6 / Thm 3.2(4): UNIQ of a view ---

func BenchmarkFig6_UniqView_K4(b *testing.B) {
	inst := reduce.UniqViewFromGraph(graph.Complete(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Uniqueness(inst.Q0, inst.D0, inst.I)
		if err != nil || !yes {
			b.Fatalf("K4 is not 3-colorable: %v %v", yes, err)
		}
	}
}

// --- Thm 3.2(3): UNIQ on c-tables (coNP cell) ---

func BenchmarkThm32_UniqCTable_Taut(b *testing.B) {
	f := sat.DNF{NVars: 2, Clauses: []sat.Clause3{
		{{Var: 0}, {Var: 0}, {Var: 0}},
		{{Var: 0, Neg: true}, {Var: 1}, {Var: 1}},
		{{Var: 0, Neg: true}, {Var: 1, Neg: true}, {Var: 1, Neg: true}},
	}}
	inst := reduce.UniqCTableFromDNF(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Uniqueness(inst.Q0, inst.D0, inst.I)
		if err != nil || !yes {
			b.Fatalf("tautology must be unique: %v %v", yes, err)
		}
	}
}

// --- Thm 4.2 / Figs. 7-10: CONT hard cells (reduction families) ---

func benchContReduction(b *testing.B, inst reduce.ContInstance, want bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil || yes != want {
			b.Fatalf("containment = %v (err %v), want %v", yes, err, want)
		}
	}
}

func fig7Family(nx int) sat.ForallExists {
	// ∀x1..x_nx ∃y: (x1∨y)(¬x1∨¬y): valid; grows with nx padding clauses.
	q := sat.ForallExists{NX: nx, NY: 1}
	for i := 0; i < nx; i++ {
		q.Clauses = append(q.Clauses,
			sat.Clause3{{Var: i}, {Var: nx}, {Var: nx}},
			sat.Clause3{{Var: i, Neg: true}, {Var: nx, Neg: true}, {Var: nx, Neg: true}},
		)
	}
	return q
}

func BenchmarkFig7_ContITable_n1(b *testing.B) {
	q := fig7Family(1)
	benchContReduction(b, reduce.ContITableFromForallExists(q), q.Valid())
}
func BenchmarkFig7_ContITable_n2(b *testing.B) {
	q := fig7Family(2)
	benchContReduction(b, reduce.ContITableFromForallExists(q), q.Valid())
}

func BenchmarkFig8_ContView_n1(b *testing.B) {
	q := fig7Family(1)
	benchContReduction(b, reduce.ContViewFromForallExists(q), q.Valid())
}

func BenchmarkFig9_ContQo_Taut(b *testing.B) {
	f := sat.DNF{NVars: 1, Clauses: []sat.Clause3{
		{{Var: 0}, {Var: 0}, {Var: 0}},
		{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
	}}
	benchContReduction(b, reduce.ContQoFromDNF(f), true)
}

func BenchmarkFig10_ContQoETable_n1(b *testing.B) {
	q := fig7Family(1)
	benchContReduction(b, reduce.ContQoETableFromForallExists(q), q.Valid())
}

// --- Fig. 11 / Thm 5.1(2,3): POSS reductions ---

func BenchmarkFig11_PossETable_Paper(b *testing.B) {
	inst := reduce.PossETableFrom3SAT(sat.PaperCNF())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("paper CNF is satisfiable: %v %v", yes, err)
		}
	}
}

func BenchmarkFig11_PossITable_Paper(b *testing.B) {
	inst := reduce.PossITableFrom3SAT(sat.PaperCNF())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("paper CNF is satisfiable: %v %v", yes, err)
		}
	}
}

// --- Thm 5.1(1): POSS on Codd-tables, polynomial cell ---

// --- Thm 5.1(1): POSS on Codd-tables, polynomial cell ---

// The tracked 128-row size is BenchmarkProbe/Thm51_PossCodd_128.
func BenchmarkThm51_PossCodd_512(b *testing.B) {
	experiments.ProbePossCodd(b, 512, decide.Options{Workers: 1})
}

// --- Thm 5.2(1): bounded POSS of a pos-exist query on c-tables ---

func benchPossLifted(b *testing.B, rows int) {
	q := query.NewAlgebra("bench",
		query.Out{Name: "Q", Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("T", "a", "b"), algebra.EqP(algebra.Col("a"), algebra.Col("b"))),
			Cols: []string{"a"},
		}})
	tb := gen.CTable(int64(rows)+3, "T", rows, 2, 8, 4, 0.4, 0.3)
	d := table.DB(tb)
	p := rel.NewInstance()
	p.EnsureRelation("Q", 1).AddRow("c1")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := (decide.Options{}).Possible(p, q, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm52_PossBounded_64(b *testing.B)  { benchPossLifted(b, 64) }
func BenchmarkThm52_PossBounded_256(b *testing.B) { benchPossLifted(b, 256) }

// --- Fig. 12 / Thm 5.2(3): DATALOG possibility gadget ---

func BenchmarkFig12_PossDatalog(b *testing.B) {
	f := sat.CNF{NVars: 2, Clauses: []sat.Clause3{{{Var: 0}, {Var: 1}, {Var: 1}}}}
	inst := reduce.PossDatalogFrom3SAT(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("satisfiable CNF must be possible: %v %v", yes, err)
		}
	}
}

// --- Thm 5.2(2)/5.3(2): FO reduction (NP/coNP cells) ---

func BenchmarkThm52_PossFO_Tiny(b *testing.B) {
	f := sat.DNF{NVars: 2, Clauses: []sat.Clause3{{{Var: 0}, {Var: 1}, {Var: 0}}}}
	inst := reduce.PossFOFromDNF(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("non-tautology must be possible: %v %v", yes, err)
		}
	}
}

func BenchmarkThm53_CertFO_Tiny(b *testing.B) {
	f := sat.DNF{NVars: 1, Clauses: []sat.Clause3{
		{{Var: 0}, {Var: 0}, {Var: 0}},
		{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
	}}
	inst := reduce.CertFOFromDNF(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := decide.Options{}.Certain(inst.P, inst.Q, inst.D)
		if err != nil || !yes {
			b.Fatalf("tautology must be certain: %v %v", yes, err)
		}
	}
}

// --- Thm 5.3(1): frozen CERT of datalog on g-tables ---

func benchCertFrozen(b *testing.B, rows int) {
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("x"), value.Var("y"))),
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("z")),
			datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("y"), value.Var("z"))),
	}}
	q := query.NewDatalog("tc", prog, "TC")
	tb := table.New("T", 2)
	for i := 0; i < rows; i++ {
		tb.AddTuple(value.Const(fmt.Sprintf("c%d", i)), value.Const(fmt.Sprintf("c%d", i+1)))
	}
	for i := 0; i < rows/4; i++ {
		tb.AddTuple(value.Const(fmt.Sprintf("c%d", i)), value.Var(fmt.Sprintf("x%d", i)))
	}
	d := table.DB(tb)
	p := rel.NewInstance()
	p.EnsureRelation("TC", 2).AddRow("c0", fmt.Sprintf("c%d", rows))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := decide.Options{}.Certain(p, q, d)
		if err != nil || !yes {
			b.Fatalf("chain closure must be certain: %v %v", yes, err)
		}
	}
}

func BenchmarkThm53_CertFrozen_32(b *testing.B)  { benchCertFrozen(b, 32) }
func BenchmarkThm53_CertFrozen_128(b *testing.B) { benchCertFrozen(b, 128) }

// --- Ablations (DESIGN.md §3) ---

// A1: Hopcroft–Karp vs simple augmenting matching.
func benchMatching(b *testing.B, algo func(*matching.Graph) ([]int, []int, int), n int) {
	g := matching.NewGraph(n, n)
	for u := 0; u < n; u++ {
		g.AddEdge(u, u)
		g.AddEdge(u, (u+1)%n)
		g.AddEdge(u, (u*7+3)%n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, size := algo(g); size != n {
			b.Fatal("expected perfect matching")
		}
	}
}

func BenchmarkAblation_MatchingHK_1024(b *testing.B) {
	benchMatching(b, matching.HopcroftKarp, 1024)
}
func BenchmarkAblation_MatchingSimple_1024(b *testing.B) {
	benchMatching(b, matching.Simple, 1024)
}

// A2: backtracking MEMB vs blind world enumeration on an e-table.
func a2Instance() (*rel.Instance, *table.Database) {
	tb := gen.ETable(11, "T", 8, 2, 6, 3, 0.5)
	d := table.DB(tb)
	i, ok := gen.MemberInstance(11, d)
	if !ok {
		i = d.EmptyInstance()
	}
	return i, d
}

func BenchmarkAblation_MembBacktracking(b *testing.B) {
	i, d := a2Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := (decide.Options{}).Membership(i, query.Identity{}, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_MembBruteForce(b *testing.B) {
	i, d := a2Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		worlds.Member(i, d)
	}
}

// A3: lifted-algebra POSS vs world-enumeration POSS on a c-table.
func a3Instance() (*rel.Instance, *table.Database) {
	tb := gen.CTable(13, "T", 8, 2, 6, 3, 0.4, 0.5)
	d := table.DB(tb)
	p := rel.NewInstance()
	p.EnsureRelation("T", 2).AddRow("c1", "c2")
	return p, d
}

func BenchmarkAblation_PossSearch(b *testing.B) {
	p, d := a3Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := (decide.Options{}).Possible(p, query.Identity{}, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_PossBruteForce(b *testing.B) {
	p, d := a3Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		worlds.Possible(p, d)
	}
}

// A4: semi-naive vs naive datalog on the Fig. 12 gadget.
func a4Program() (datalog.Program, *rel.Instance) {
	inst := reduce.PossDatalogFrom3SAT(sat.PaperCNF())
	// Freeze the gadget to get a concrete EDB.
	frozen := table.Freeze(inst.D, "~b")
	dl := inst.Q.(query.Datalog)
	return dl.Program, frozen
}

func BenchmarkAblation_DatalogSemiNaive(b *testing.B) {
	prog, edb := a4Program()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := prog.Eval(edb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DatalogNaive(b *testing.B) {
	prog, edb := a4Program()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := prog.EvalNaive(edb); err != nil {
			b.Fatal(err)
		}
	}
}

// A5: frozen CERT vs world-enumeration CERT on a g-table.
func a5Instance() (*rel.Instance, query.Query, *table.Database) {
	prog := datalog.Program{Rules: []datalog.Rule{
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("x"), value.Var("y"))),
		datalog.R(datalog.At("TC", value.Var("x"), value.Var("z")),
			datalog.At("TC", value.Var("x"), value.Var("y")),
			datalog.At("T", value.Var("y"), value.Var("z"))),
	}}
	q := query.NewDatalog("tc", prog, "TC")
	tb := table.New("T", 2)
	for i := 0; i < 6; i++ {
		tb.AddTuple(value.Const(fmt.Sprintf("c%d", i)), value.Const(fmt.Sprintf("c%d", i+1)))
	}
	tb.AddTuple(value.Const("c0"), value.Var("x0"))
	tb.AddTuple(value.Const("c1"), value.Var("x1"))
	d := table.DB(tb)
	p := rel.NewInstance()
	p.EnsureRelation("TC", 2).AddRow("c0", "c6")
	return p, q, d
}

func BenchmarkAblation_CertFrozen(b *testing.B) {
	p, q, d := a5Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := decide.Options{}.Certain(p, q, d)
		if err != nil || !yes {
			b.Fatal("chain closure must be certain")
		}
	}
}

func BenchmarkAblation_CertBruteForce(b *testing.B) {
	p, q, d := a5Instance()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Brute force: enumerate worlds, evaluate the query on each.
		violated := false
		worlds.Each(d, nil, func(w *rel.Instance) bool {
			out, err := q.Eval(w)
			if err != nil {
				b.Fatal(err)
			}
			if !p.SubsetOf(out) {
				violated = true
				return true
			}
			return false
		})
		if violated {
			b.Fatal("chain closure must be certain")
		}
	}
}

// --- Tracked perf probes ---

// BenchmarkProbe runs every probe of the internal/experiments registry as
// BenchmarkProbe/<name>: the polynomial cells at their tracked sizes and
// the decomposition backend, server and HTTP layers. The registry is the
// probes' only definition (pwbench -bench and -check measure the same
// bodies) and flags the gated subset.
func BenchmarkProbe(b *testing.B) {
	for _, p := range experiments.Probes() {
		b.Run(p.Name, p.Run)
	}
}
