package experiments

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// BenchResult is one perf probe's outcome in the machine-readable shape
// future PRs diff against (BENCH_*.json): the same name / ns-per-op /
// allocs-per-op triple `go test -bench` reports.
type BenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Workers records the decide.Options worker count the probe ran at,
	// so the -check guard can refuse to compare a sequential rerun
	// against a baseline that was generated in parallel.
	Workers int `json:"workers"`
}

// Probe is one tracked perf probe. The registry below is its only
// definition: `go test -bench '^BenchmarkProbe$'` runs it as
// BenchmarkProbe/<Name>, and `pwbench -bench` / `pwbench -check` measure
// the same body.
type Probe struct {
	Name string
	// Workers is the decide.Options worker count the probe runs at:
	// suffix _wN pins N, the unsuffixed probes are sequential (1), the
	// configuration BENCH_baseline.json was generated in.
	Workers int
	// Gated probes are held to the committed baseline by `pwbench
	// -check`: one per polynomial cell family, at the sizes fast enough
	// for every push.
	Gated bool
	Run   func(b *testing.B)
}

// Probes is the registry of tracked perf probes: the paper's polynomial
// cells at a few sizes (with parallel _w8 variants) and the
// decomposition backend at 2^20 and 2^100 worlds. Kept deliberately
// small: every `pwbench -bench` invocation runs them all.
func Probes() []Probe {
	seq := decide.Options{Workers: 1}
	par := decide.Options{Workers: 8}
	return []Probe{
		{"Fig3_MembMatching_128", 1, true, func(b *testing.B) { probeMembCodd(b, 128, seq) }},
		{"Fig3_MembMatching_512", 1, false, func(b *testing.B) { probeMembCodd(b, 512, seq) }},
		{"Fig3_MembMatching_2048", 1, false, func(b *testing.B) { probeMembCodd(b, 2048, seq) }},
		{"Fig3_MembMatching_2048_w8", 8, false, func(b *testing.B) { probeMembCodd(b, 2048, par) }},
		{"Thm32_UniqGTable_128", 1, true, func(b *testing.B) { probeUniqGTable(b, 128) }},
		{"Thm32_UniqGTable_512", 1, false, func(b *testing.B) { probeUniqGTable(b, 512) }},
		{"Thm41_ContFreeze_64", 1, true, func(b *testing.B) { probeContFreeze(b, 64, seq) }},
		{"Thm41_ContFreeze_256", 1, false, func(b *testing.B) { probeContFreeze(b, 256, seq) }},
		{"Thm41_ContFreeze_256_w8", 8, false, func(b *testing.B) { probeContFreeze(b, 256, par) }},
		// The backtracking MEMB search of Theorem 3.1(2,3) on a c-table
		// member instance: 16 rows is ctable-decide's c-table size, 64
		// the next rung. A search node pushes and pops one row's atoms on
		// one equality solver, so allocations follow the rows set up,
		// not the nodes visited.
		{"Thm31_MembCTable_16", 1, true, func(b *testing.B) { probeMembCTable(b, 16) }},
		{"Thm31_MembCTable_64", 1, false, func(b *testing.B) { probeMembCTable(b, 64) }},
		// The request's instance before any decision: ParseInstance of
		// a printed member world of ctable-decide's Codd table (150 rows
		// of arity 3 over 40 constants). Its allocations follow the
		// @relation blocks, not the facts.
		{"Parse_Instance_150", 1, true, func(b *testing.B) { probeParseInstance(b, 150) }},
		{"Thm51_PossCodd_128", 1, false, func(b *testing.B) { ProbePossCodd(b, 128, seq) }},
		{"Thm51_PossCodd_128_w8", 8, false, func(b *testing.B) { ProbePossCodd(b, 128, par) }},
		// Decomposition backend: native procedures on a ~10^6-world
		// world-set decomposition, no enumeration anywhere. Workers is 1
		// by construction (the procedures are sequential lookups).
		{"WSD_Count_1M", 1, true, probeWSDCount},
		{"WSD_Memb_1M", 1, true, probeWSDMemb},
		{"WSD_Poss_1M", 1, true, probeWSDPoss},
		// Lifted query evaluation (internal/wsdalg) on the same
		// decomposition: selection, projection and a dimension-table
		// join, each producing the answer world-set in factored form.
		{"WSDQuery_Select_1M", 1, true, probeWSDQuerySelect},
		{"WSDQuery_Project_1M", 1, true, probeWSDQueryProject},
		{"WSDQuery_Join_1M", 1, true, probeWSDQueryJoin},
		// The σ rung of the component-count ladder: σ[#g = group] over
		// 1000 and 10000 tuple-level components, ten per group. The
		// probed scan reads only the group's posting, so the two rungs
		// should cost about the same; the gap is the per-component work
		// left in evaluator set-up. The π∘σ rung is the same read under
		// a π, which the planner's column pruning rewrites to σ over a π
		// on the scan: the probe must survive the rewrite.
		{"WSDQuery_SelectScan_1k", 1, false, func(b *testing.B) { probeWSDSelectScan(b, 1000, false) }},
		{"WSDQuery_SelectScan_10k", 1, false, func(b *testing.B) { probeWSDSelectScan(b, 10000, false) }},
		{"WSDQuery_ProjectSelectScan_1k", 1, false, func(b *testing.B) { probeWSDSelectScan(b, 1000, true) }},
		{"WSDQuery_ProjectSelectScan_10k", 1, false, func(b *testing.B) { probeWSDSelectScan(b, 10000, true) }},
		// World-set algebra + planner on the same decomposition: the
		// certain∘possible collapse, choice-of over the possible-set, and
		// a σ-over-⋈ query through the cost-based planner (which must
		// price its pushed form strictly below the written one).
		{"WSAlgebra_Possible_1M", 1, true, probeWSAPossible},
		{"WSAlgebra_ChoiceOf_1M", 1, true, probeWSAChoiceOf},
		{"WSAlgebra_Planned_1M", 1, true, probeWSAPlanned},
		// Attribute-level decomposition: the 2^100-world century grid —
		// a world set the tuple-level alternative lists cannot even
		// store — answered from the per-slot factored form.
		{"WSDAttr_Count_2p100", 1, true, probeWSDAttrCount},
		{"WSDAttr_Memb_2p100", 1, true, probeWSDAttrMemb},
		{"WSDAttr_Query_2p100", 1, true, probeWSDAttrQuery},
		// The update engine on the fat 2^20-world builder (~2000 facts):
		// one operation touching one component, applied incrementally
		// (touched component re-normalized, the rest shared copy-on-write)
		// vs the per-operation full re-factorization. The pair tracks the
		// incremental engine's speed advantage — its reason to exist.
		{"WSDUpdate_Incremental_1M", 1, true, func(b *testing.B) { probeWSDUpdate(b, false) }},
		{"WSDUpdate_Full_1M", 1, true, func(b *testing.B) { probeWSDUpdate(b, true) }},
		// The write ladder: a write-mix-style write touching one
		// component, then the next σ read's posting lookup, at 200, 2000
		// and 20000 components. Component IDs are stable and the
		// successor's derived state is its parent's plus the write's
		// delta, so all that grows with the rung is the copy of a few
		// chunk tables (8 bytes per chunk): the rungs cost about the same.
		{"WSDUpdate_Ladder_200", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 200) }},
		{"WSDUpdate_Ladder_2k", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 2000) }},
		{"WSDUpdate_Ladder_20k", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 20000) }},
		// The template ladder: ParseSource of the probe-mix attribute-level
		// shape (gen.SensorTemplates) at 1000 and 6000 templates. Normalize
		// finds overlapping templates through a bucket index on one column,
		// so the rungs should differ by about the template ratio, 6, not
		// its square.
		{"WSDParse_TemplateLadder_1k", 1, false, func(b *testing.B) { probeTemplateLadder(b, 1000) }},
		{"WSDParse_TemplateLadder_6k", 1, false, func(b *testing.B) { probeTemplateLadder(b, 6000) }},
		// Query server (internal/server) on the million-world WSD: the
		// answer-cache hit path vs the uncached eval it replaces, and HTTP
		// fact-probe throughput with an 8-worker pool and a parallel client
		// fleet (req/s = 1e9 / ns_per_op) — plain, with ?trace=1 (bounds
		// the span/cost instrumentation overhead) and with ?explain=1
		// (bounds plan attachment + flight recording).
		{"ServerCertAns_Cached_1M", 1, true, probeServerCertAnsCached},
		{"ServerCertAns_Uncached_1M", 1, true, probeServerCertAnsUncached},
		{"ServerHTTP_FactProbe_w8", 8, true, func(b *testing.B) { probeServerHTTPFactProbe(b, "") }},
		{"ServerHTTP_FactProbe_traced", 8, true, func(b *testing.B) { probeServerHTTPFactProbe(b, "?trace=1") }},
		{"ServerHTTP_FactProbe_explain", 8, true, func(b *testing.B) { probeServerHTTPFactProbe(b, "?explain=1") }},
	}
}

// centuryCount is 2^100, the exact world count of gen.CenturyWSD.
func centuryCount() *big.Int {
	return new(big.Int).Exp(big.NewInt(2), big.NewInt(100), nil)
}

func probeWSDAttrCount(b *testing.B) {
	w := gen.CenturyWSD()
	want := centuryCount()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if c := w.Count(); c.Cmp(want) != 0 {
			b.Fatalf("Count = %s, want 2^100", c)
		}
	}
}

func probeWSDAttrMemb(b *testing.B) {
	w := gen.CenturyWSD()
	i := w.World(make([]int, w.LiveComponents()))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !w.Member(i) {
			b.Fatal("materialized world must be a member")
		}
	}
}

func probeWSDAttrQuery(b *testing.B) {
	// σ-π over the factored form: project the sensor ids of the
	// hi-reading worlds. Each template contributes a 2-alternative
	// answer component ({R(sᵢ)} or ∅), so the answer world-set stays at
	// 2^100 and is never expanded.
	q := query.NewAlgebra("hi", query.Out{Name: "A",
		Expr: algebra.Project{
			E:    algebra.Where(algebra.Scan("R", "s", "v"), algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))),
			Cols: []string{"s"},
		}})
	w := gen.CenturyWSD()
	want := centuryCount()
	as := wsdalg.Options{Decision: wsdalg.Written(q)}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, _, _, err := wsdalg.Apply(w, q, as)
		if err != nil {
			b.Fatal(err)
		}
		if c := out.Count(); c.Cmp(want) != 0 {
			b.Fatalf("answer Count = %s, want 2^100", c)
		}
	}
}

func probeWSDQuery(b *testing.B, q query.Query, wantCount int64) {
	w := gen.MillionWorldWSD()
	as := wsdalg.Options{Decision: wsdalg.Written(q)}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, _, _, err := wsdalg.Apply(w, q, as)
		if err != nil {
			b.Fatal(err)
		}
		if c := out.Count(); !c.IsInt64() || c.Int64() != wantCount {
			b.Fatalf("answer Count = %s, want %d", c, wantCount)
		}
	}
}

func probeWSDQuerySelect(b *testing.B) {
	scan := algebra.Scan("S", "s", "v")
	q := query.NewAlgebra("hi", query.Out{Name: "A",
		Expr: algebra.Where(scan, algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))})
	probeWSDQuery(b, q, 1<<20)
}

func probeWSDQueryProject(b *testing.B) {
	q := query.NewAlgebra("sensors", query.Out{Name: "A",
		Expr: algebra.Project{E: algebra.Scan("S", "s", "v"), Cols: []string{"s"}}})
	// Projecting the value away collapses all 2^20 worlds to one
	// certain answer.
	probeWSDQuery(b, q, 1)
}

func probeWSDQueryJoin(b *testing.B) {
	// Dimension-table join: label every reading through a constant
	// value→label relation. Each component joins the (origin-free)
	// constant part locally, so the answer keeps the factored form —
	// joining the uncertain relation with *itself on the value column*
	// instead would correlate all 20 sensors and degenerate to a world
	// list, which is exactly what the MaxMergeAlts guard rejects.
	q := query.NewAlgebra("labels", query.Out{Name: "A",
		Expr: algebra.Project{
			E: algebra.Join{
				L: algebra.Scan("S", "s", "v"),
				R: algebra.ConstRel{Cols: []string{"v", "lab"}, Rows: [][]string{{"lo", "low"}, {"hi", "high"}}},
			},
			Cols: []string{"s", "lab"},
		}})
	// Every sensor world labels differently, so the answer world-set
	// stays at 2^20 (the certain hub reading joins nothing and drops).
	probeWSDQuery(b, q, 1<<20)
}

// probeWSDSelectScan runs σ[#g = group](R) through the planner on
// gen.GroupedWSD(comps, comps/10): ten components per group, 2^10
// answer worlds. With project it runs π[k] over that σ: the keys do not
// depend on the lo/hi choice, so the answer is one world.
func probeWSDSelectScan(b *testing.B, comps int, project bool) {
	w := gen.GroupedWSD(comps, comps/10)
	e := algebra.Expr(algebra.Where(algebra.Scan("R", "k", "g", "v"),
		algebra.EqP(algebra.Col("g"), algebra.Lit(gen.GroupName(7)))))
	worlds := int64(1 << 10)
	if project {
		e, worlds = algebra.Project{E: e, Cols: []string{"k"}}, 1
	}
	q := query.NewAlgebra("group", query.Out{Name: "A", Expr: e})
	planned := wsdalg.Options{Cost: obs.NewCost()}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, _, _, err := wsdalg.Apply(w, q, planned)
		if err != nil {
			b.Fatal(err)
		}
		if c := out.Count(); !c.IsInt64() || c.Int64() != worlds {
			b.Fatalf("answer Count = %s, want %d", c, worlds)
		}
	}
}

func probeWSAPossible(b *testing.B) {
	// certain(possible(σ[v=hi] S)): the possible-set of hi readings is a
	// single world (40 tuples — both fact spellings of all 20 sensors);
	// certain of a singleton world set is that world.
	q := query.NewAlgebra("hi-possible", query.Out{Name: "A",
		Expr: algebra.Certain{E: algebra.Possible{
			E: algebra.Where(algebra.Scan("S", "s", "v"),
				algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))),
		}}})
	probeWSDQuery(b, q, 1)
}

func probeWSAChoiceOf(b *testing.B) {
	// choiceof(possible(S)): the possible-set is one 81-tuple world (the
	// hub fact plus four spellings per sensor); choice-of splits it into
	// one singleton answer world per support tuple.
	q := query.NewAlgebra("pick", query.Out{Name: "A",
		Expr: algebra.ChoiceOf{E: algebra.Possible{E: algebra.Scan("S", "s", "v")}}})
	probeWSDQuery(b, q, 81)
}

func probeWSAPlanned(b *testing.B) {
	// σ[lab=high] over the dimension-table join, written with the
	// selection on top. The planner must push it below the join (onto the
	// two-row constant side, leaving one row) and price the pushed form
	// strictly below the written one; the probe runs the chosen plan.
	q := query.NewAlgebra("high-labels", query.Out{Name: "A",
		Expr: algebra.Project{
			E: algebra.Where(
				algebra.Join{
					L: algebra.Scan("S", "s", "v"),
					R: algebra.ConstRel{Cols: []string{"v", "lab"}, Rows: [][]string{{"lo", "low"}, {"hi", "high"}}},
				},
				algebra.EqP(algebra.Col("lab"), algebra.Lit("high"))),
			Cols: []string{"s", "lab"},
		}})
	w := gen.MillionWorldWSD()
	if _, info := wsdalg.Optimize(w, q); info == nil || info.ChosenCost >= info.NaiveCost {
		b.Fatalf("planner must price the pushed form below the written one, got %+v", info)
	}
	planned := wsdalg.Options{Cost: obs.NewCost()}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, _, _, err := wsdalg.Apply(w, q, planned)
		if err != nil {
			b.Fatal(err)
		}
		if c := out.Count(); !c.IsInt64() || c.Int64() != 1<<20 {
			b.Fatalf("answer Count = %s, want 2^20", c)
		}
	}
}

// probeWSDUpdate applies one single-component delete on
// gen.FatMillionWorldWSD, incremental vs full renormalization, with the
// 2^20 world count asserted per iteration.
func probeWSDUpdate(b *testing.B, full bool) {
	w := gen.FatMillionWorldWSD()
	u := &wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpDelete, Rel: "S", Args: []string{"s07f25", wsd.Wildcard}},
	}}
	apply := w.ApplyUpdate
	if full {
		apply = w.ApplyUpdateFull
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		out, err := apply(u)
		if err != nil {
			b.Fatal(err)
		}
		if c := out.Count(); !c.IsInt64() || c.Int64() != 1<<20 {
			b.Fatalf("post-update Count = %s, want 2^20", c)
		}
	}
}

// probeWSDUpdateLadder alternates inserting and deleting one certain
// fact of group 7 on gen.GroupedWSD(comps, comps/10), so the
// decomposition returns to its initial shape every two writes, and
// after each write looks up the group's posting on the successor, as
// the σ[#g = group] read that follows a write in write-mix does. The
// parent is indexed before timing, as a served version is.
func probeWSDUpdateLadder(b *testing.B, comps int) {
	w := gen.GroupedWSD(comps, comps/10)
	group := gen.GroupName(7)
	writes := []*wsd.Update{
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpInsert, Rel: "R", Args: []string{"w00001", group, "on"}}}},
		{Ops: []wsd.UpdateOp{{Kind: wsd.OpDelete, Rel: "R", Args: []string{"w00001", wsd.Wildcard, wsd.Wildcard}}}},
	}
	g := sym.Const(group)
	w.Posting(0, 1, g)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		next, err := w.ApplyUpdate(writes[n%2])
		if err != nil {
			b.Fatal(err)
		}
		want := 10 // the group's components, plus the certain one while it holds the fact
		if n%2 == 0 {
			want++
		}
		if comps, _ := next.Posting(0, 1, g); len(comps) != want {
			b.Fatalf("write %d: posting of %s names %d components, want %d", n, group, len(comps), want)
		}
		w = next
	}
}

func probeTemplateLadder(b *testing.B, n int) {
	_, text := gen.SensorTemplates(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := parse.ParseSource(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		if got := src.WSD.LiveComponents(); got != n+1 {
			b.Fatalf("parsed %d components, want %d templates and the certain one", got, n)
		}
	}
}

func probeWSDCount(b *testing.B) {
	w := gen.MillionWorldWSD()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if c := w.Count(); !c.IsInt64() || c.Int64() != 1<<20 {
			b.Fatalf("Count = %s, want 2^20", c)
		}
	}
}

func probeWSDMemb(b *testing.B) {
	w := gen.MillionWorldWSD()
	i := w.World(make([]int, w.LiveComponents()))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !w.Member(i) {
			b.Fatal("materialized world must be a member")
		}
	}
}

func probeWSDPoss(b *testing.B) {
	w := gen.MillionWorldWSD()
	p := rel.NewInstance()
	pr := p.EnsureRelation("S", 2)
	pr.AddRow("hub", "ok")
	pr.AddRow("s00", "lo")
	pr.AddRow("s13", "hi")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !w.Possible(p) {
			b.Fatal("cross-component fragment must be possible")
		}
	}
}

func probeMembCodd(b *testing.B, rows int, o decide.Options) {
	tb := gen.CoddTable(int64(rows), "T", rows, 3, 2*rows, 0.3)
	d := table.DB(tb)
	i, ok := gen.MemberInstance(int64(rows), d)
	if !ok {
		b.Skip("no member instance")
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := o.Membership(i, query.Identity{}, d)
		if err != nil || !yes {
			b.Fatalf("membership failed: %v %v", yes, err)
		}
	}
}

// probeParseInstance parses the printed member instance of a Codd
// table with rows rows of arity 3 over 40 constants and 30% nulls.
func probeParseInstance(b *testing.B, rows int) {
	d := table.DB(gen.CoddTable(1, "T", rows, 3, 40, 0.3))
	i, ok := gen.MemberInstance(1, d)
	if !ok {
		b.Skip("no member instance")
	}
	var text strings.Builder
	if err := parse.PrintInstance(&text, i); err != nil {
		b.Fatal(err)
	}
	if got, err := parse.ParseInstance(strings.NewReader(text.String())); err != nil || !got.Equal(i) {
		b.Fatalf("parsed instance differs from the printed one (error %v)", err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		got, err := parse.ParseInstance(strings.NewReader(text.String()))
		if err != nil {
			b.Fatal(err)
		}
		if got.Size() != i.Size() {
			b.Fatalf("parsed %d facts, want %d", got.Size(), i.Size())
		}
	}
}

// probeMembCTable decides MEMB of a member world of a c-table with
// rows rows of arity 3, over rows/2 constants and a pool of 3·rows/8
// variables, 30% nulls and 30% local conditions: at 16 rows the c-table
// shape of ctable-decide.
func probeMembCTable(b *testing.B, rows int) {
	d := table.DB(gen.CTable(1, "T", rows, 3, rows/2, rows*3/8, 0.3, 0.3))
	i, ok := gen.MemberInstance(1, d)
	if !ok {
		b.Skip("no member instance")
	}
	o := decide.Options{Workers: 1}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := o.Membership(i, query.Identity{}, d)
		if err != nil || !yes {
			b.Fatalf("sampled world must be a member: %v %v", yes, err)
		}
	}
}

func probeUniqGTable(b *testing.B, rows int) {
	tb := table.New("T", 2)
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 2)
	for j := 0; j < rows; j++ {
		c := fmt.Sprintf("c%d", j)
		x := sym.Var(fmt.Sprintf("x%d", j))
		tb.AddTuple(sym.Const(c), x)
		tb.Global = append(tb.Global, cond.EqAtom(x, sym.Const(c)))
		r.AddRow(c, c)
	}
	d := table.DB(tb)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := decide.Options{}.Uniqueness(query.Identity{}, d, i)
		if err != nil || !yes {
			b.Fatalf("forced-ground g-table must be unique: %v %v", yes, err)
		}
	}
}

func probeContFreeze(b *testing.B, rows int, o decide.Options) {
	t0 := gen.CoddTable(int64(rows), "T", rows, 2, rows, 0.4)
	// Superset: same rows plus a free wildcard row (x, y): always contains.
	t := t0.Clone()
	t.AddTuple(sym.Var("wild1"), sym.Var("wild2"))
	d0, d := table.DB(t0), table.DB(t)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := o.Containment(query.Identity{}, d0, query.Identity{}, d)
		if err != nil || !yes {
			b.Fatalf("superset extension must contain: %v %v", yes, err)
		}
	}
}

// ProbePossCodd is the Thm 5.1(1) POSS-on-Codd-tables body: half of a
// member world must be possible. Exported for the untracked
// BenchmarkThm51_PossCodd_512 size of the same cell.
func ProbePossCodd(b *testing.B, rows int, o decide.Options) {
	tb := gen.CoddTable(int64(rows)+5, "T", rows, 3, 2*rows, 0.3)
	d := table.DB(tb)
	w, ok := gen.MemberInstance(int64(rows), d)
	if !ok {
		b.Skip("no member instance")
	}
	p := rel.NewInstance()
	pr := p.EnsureRelation("T", 3)
	for i, f := range w.Relation("T").Facts() {
		if i%2 == 0 {
			pr.Add(f)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		yes, err := o.Possible(p, query.Identity{}, d)
		if err != nil || !yes {
			b.Fatalf("half of a world must be possible: %v %v", yes, err)
		}
	}
}

// Measure runs the probe under testing.Benchmark with allocation
// reporting. ok is false when no iteration ran (b.Skip or b.Fatal inside
// the probe): dividing would produce NaN and break JSON encoding.
func (p Probe) Measure() (r BenchResult, ok bool) {
	res := testing.Benchmark(p.Run)
	if res.N == 0 {
		return BenchResult{}, false
	}
	return BenchResult{
		Name:        p.Name,
		N:           res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Workers:     p.Workers,
	}, true
}

// RunBenchmarks measures the registered probes (all of them, or the
// single one named by only), dropping any that ran no iteration.
func RunBenchmarks(only string) []BenchResult {
	var out []BenchResult
	for _, p := range Probes() {
		if only != "" && p.Name != only {
			continue
		}
		if r, ok := p.Measure(); ok {
			out = append(out, r)
		}
	}
	return out
}
