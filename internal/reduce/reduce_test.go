package reduce

import (
	"math/rand"
	"testing"

	"pw/internal/decide"
	"pw/internal/graph"
	"pw/internal/sat"
	"pw/internal/table"
)

// Every test here checks the defining property of a reduction: the source
// instance's answer equals the target decision problem's answer, with the
// target decided by internal/decide. This validates the construction and
// the decision procedure at once.

func smallGraphs(seed int64, count, maxN int) []*graph.G {
	rng := rand.New(rand.NewSource(seed))
	gs := []*graph.G{
		graph.Paper(),
		graph.Cycle(4),
		graph.Cycle(5),
		graph.Complete(3),
		graph.Complete(4), // not 3-colorable
	}
	for len(gs) < count {
		gs = append(gs, graph.Random(rng, 2+rng.Intn(maxN-1), 0.5))
	}
	return gs
}

func TestMembETableFrom3Col(t *testing.T) {
	for i, g := range smallGraphs(1, 12, 6) {
		inst := MembETableFrom3Col(g)
		if k := inst.D.Kind(); k != table.KindE && k != table.KindCodd {
			t.Fatalf("graph %d: reduction must build an e-table, got %v", i, k)
		}
		got, err := decide.Options{}.Membership(inst.I0, inst.Q0(), inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Colorable3(); got != want {
			t.Errorf("graph %d (%v): memb=%v colorable=%v", i, g, got, want)
		}
	}
}

func TestMembITableFrom3Col(t *testing.T) {
	for i, g := range smallGraphs(2, 12, 6) {
		inst := MembITableFrom3Col(g)
		if k := inst.D.Kind(); k != table.KindI && k != table.KindCodd {
			t.Fatalf("graph %d: reduction must build an i-table, got %v", i, k)
		}
		got, err := decide.Options{}.Membership(inst.I0, inst.Q0(), inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Colorable3(); got != want {
			t.Errorf("graph %d (%v): memb=%v colorable=%v", i, g, got, want)
		}
	}
}

func TestMembViewFrom3Col(t *testing.T) {
	for i, g := range smallGraphs(3, 8, 5) {
		if len(g.Edges) == 0 {
			continue
		}
		inst := MembViewFrom3Col(g)
		if inst.D.Kind() != table.KindCodd {
			t.Fatalf("graph %d: base must be Codd tables, got %v", i, inst.D.Kind())
		}
		got, err := decide.Options{}.Membership(inst.I0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Colorable3(); got != want {
			t.Errorf("graph %d (%v): view-memb=%v colorable=%v", i, g, got, want)
		}
	}
}

func smallDNFs(seed int64, count int) []sat.DNF {
	rng := rand.New(rand.NewSource(seed))
	fs := []sat.DNF{sat.PaperDNF()}
	// A genuine small tautology: x0 ∨ ¬x0 padded to width 3 over 2 vars:
	// (x0∧x0∧x0) ∨ (¬x0∧¬x0∧¬x0).
	taut := sat.DNF{NVars: 1, Clauses: []sat.Clause3{
		{{Var: 0}, {Var: 0}, {Var: 0}},
		{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
	}}
	fs = append(fs, taut)
	for len(fs) < count {
		fs = append(fs, sat.RandomDNF(rng, 2+rng.Intn(2), 1+rng.Intn(4)))
	}
	return fs
}

func smallCNFs(seed int64, count int) []sat.CNF {
	rng := rand.New(rand.NewSource(seed))
	fs := []sat.CNF{sat.PaperCNF()}
	// An unsatisfiable CNF over one variable.
	unsat := sat.CNF{NVars: 1, Clauses: []sat.Clause3{
		{{Var: 0}, {Var: 0}, {Var: 0}},
		{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
	}}
	fs = append(fs, unsat)
	for len(fs) < count {
		fs = append(fs, sat.RandomCNF(rng, 2+rng.Intn(2), 1+rng.Intn(4)))
	}
	return fs
}

func TestUniqCTableFromDNF(t *testing.T) {
	for i, f := range smallDNFs(4, 10) {
		inst := UniqCTableFromDNF(f)
		got, err := decide.Options{}.Uniqueness(inst.Q0, inst.D0, inst.I)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Tautology(); got != want {
			t.Errorf("formula %d (%s): uniq=%v taut=%v", i, f, got, want)
		}
	}
}

func TestUniqViewFromGraph(t *testing.T) {
	for i, g := range smallGraphs(5, 8, 5) {
		if len(g.Edges) == 0 {
			continue
		}
		inst := UniqViewFromGraph(g)
		got, err := decide.Options{}.Uniqueness(inst.Q0, inst.D0, inst.I)
		if err != nil {
			t.Fatal(err)
		}
		if want := !g.Colorable3(); got != want {
			t.Errorf("graph %d (%v): uniq=%v non-colorable=%v", i, g, got, want)
		}
	}
}

func smallForallExists(seed int64, count int) []sat.ForallExists {
	rng := rand.New(rand.NewSource(seed))
	qs := []sat.ForallExists{
		// ∀x0 ∃x1: (x0∨x1∨x1)∧(¬x0∨¬x1∨¬x1) — valid (pick x1 = ¬x0).
		{NX: 1, NY: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 1}, {Var: 1}},
			{{Var: 0, Neg: true}, {Var: 1, Neg: true}, {Var: 1, Neg: true}},
		}},
		// ∀x0 ∃x1: (x0∧…): invalid (fails at x0=false).
		{NX: 1, NY: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
		}},
	}
	for len(qs) < count {
		qs = append(qs, sat.RandomForallExists(rng, 1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(2)))
	}
	return qs
}

func TestContITableFromForallExists(t *testing.T) {
	for i, q := range smallForallExists(6, 6) {
		inst := ContITableFromForallExists(q)
		got, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := q.Valid(); got != want {
			t.Errorf("instance %d (%s): cont=%v valid=%v", i, q, got, want)
		}
	}
}

func TestContViewFromForallExists(t *testing.T) {
	for i, q := range smallForallExists(7, 6) {
		inst := ContViewFromForallExists(q)
		got, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := q.Valid(); got != want {
			t.Errorf("instance %d (%s): cont=%v valid=%v", i, q, got, want)
		}
	}
}

func TestContQoFromDNF(t *testing.T) {
	for i, f := range smallDNFs(8, 8) {
		inst := ContQoFromDNF(f)
		got, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Tautology(); got != want {
			t.Errorf("formula %d (%s): cont=%v taut=%v", i, f, got, want)
		}
	}
}

func TestContQoETableFromForallExists(t *testing.T) {
	for i, q := range smallForallExists(9, 5) {
		inst := ContQoETableFromForallExists(q)
		got, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := q.Valid(); got != want {
			t.Errorf("instance %d (%s): cont=%v valid=%v", i, q, got, want)
		}
	}
}

func TestContCTableFromForallExists(t *testing.T) {
	for i, q := range smallForallExists(10, 4) {
		inst, err := ContCTableFromForallExists(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decide.Options{}.Containment(inst.Q0, inst.D0, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := q.Valid(); got != want {
			t.Errorf("instance %d (%s): cont=%v valid=%v", i, q, got, want)
		}
	}
}

func TestPossETableFrom3SAT(t *testing.T) {
	for i, f := range smallCNFs(11, 10) {
		inst := PossETableFrom3SAT(f)
		if k := inst.D.Kind(); k != table.KindE && k != table.KindCodd {
			t.Fatalf("formula %d: reduction must build an e-table, got %v", i, k)
		}
		got, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Satisfiable(); got != want {
			t.Errorf("formula %d (%s): poss=%v sat=%v", i, f, got, want)
		}
	}
}

func TestPossITableFrom3SAT(t *testing.T) {
	for i, f := range smallCNFs(12, 10) {
		inst := PossITableFrom3SAT(f)
		got, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Satisfiable(); got != want {
			t.Errorf("formula %d (%s): poss=%v sat=%v", i, f, got, want)
		}
	}
}

// tinyDNFs keeps the variable count of the occurrence table small: the
// generic first-order decision procedure enumerates valuations of all
// 3·|clauses| occurrence variables — that exponential cost is precisely
// the content of Theorems 5.2(2)/5.3(2).
func tinyDNFs(seed int64, count int) []sat.DNF {
	rng := rand.New(rand.NewSource(seed))
	fs := []sat.DNF{
		// x0 ∨ ¬x0: tautology.
		{NVars: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
			{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
		}},
		// Single clause: never a tautology.
		{NVars: 2, Clauses: []sat.Clause3{{{Var: 0}, {Var: 1}, {Var: 0}}}},
	}
	for len(fs) < count {
		fs = append(fs, sat.RandomDNF(rng, 1+rng.Intn(2), 1+rng.Intn(2)))
	}
	return fs
}

// tinyCNFs bounds the datalog gadget similarly.
func tinyCNFs(seed int64, count int) []sat.CNF {
	rng := rand.New(rand.NewSource(seed))
	fs := []sat.CNF{
		// x0 ∧ ¬x0 (padded): unsatisfiable.
		{NVars: 1, Clauses: []sat.Clause3{
			{{Var: 0}, {Var: 0}, {Var: 0}},
			{{Var: 0, Neg: true}, {Var: 0, Neg: true}, {Var: 0, Neg: true}},
		}},
	}
	for len(fs) < count {
		fs = append(fs, sat.RandomCNF(rng, 1+rng.Intn(2), 1+rng.Intn(2)))
	}
	return fs
}

func TestPossFOFromDNF(t *testing.T) {
	for i, f := range tinyDNFs(13, 5) {
		inst := PossFOFromDNF(f)
		got, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := !f.Tautology(); got != want {
			t.Errorf("formula %d (%s): poss=%v non-taut=%v", i, f, got, want)
		}
	}
}

func TestCertFOFromDNF(t *testing.T) {
	for i, f := range tinyDNFs(14, 5) {
		inst := CertFOFromDNF(f)
		got, err := decide.Options{}.Certain(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Tautology(); got != want {
			t.Errorf("formula %d (%s): cert=%v taut=%v", i, f, got, want)
		}
	}
}

func TestCertCTableFromDNF(t *testing.T) {
	for i, f := range smallDNFs(15, 10) {
		inst := CertCTableFromDNF(f)
		got, err := decide.Options{}.Certain(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Tautology(); got != want {
			t.Errorf("formula %d (%s): cert=%v taut=%v", i, f, got, want)
		}
	}
}

func TestPossDatalogFrom3SAT(t *testing.T) {
	for i, f := range tinyCNFs(16, 6) {
		inst := PossDatalogFrom3SAT(f)
		got, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Satisfiable(); got != want {
			t.Errorf("formula %d (%s): poss=%v sat=%v", i, f, got, want)
		}
	}
}

func TestPossViewFrom3Col(t *testing.T) {
	for i, g := range smallGraphs(17, 6, 5) {
		if len(g.Edges) == 0 {
			continue
		}
		inst := PossViewFrom3Col(g)
		got, err := decide.Options{}.Possible(inst.P, inst.Q, inst.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.Colorable3(); got != want {
			t.Errorf("graph %d (%v): poss=%v colorable=%v", i, g, got, want)
		}
	}
}
