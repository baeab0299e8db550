package experiments

import (
	"fmt"
	"math/big"
	"testing"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
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
		// and 20000 components. The successor inherits its parent's
		// display order and posting index, so what grows with the rung is
		// flat array passes, not a sort or an index rebuild.
		{"WSDUpdate_Ladder_200", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 200) }},
		{"WSDUpdate_Ladder_2k", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 2000) }},
		{"WSDUpdate_Ladder_20k", 1, false, func(b *testing.B) { probeWSDUpdateLadder(b, 20000) }},
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
	i := w.World(make([]int, w.Components()))
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
	i := w.World(make([]int, w.Components()))
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

func probeUniqGTable(b *testing.B, rows int) {
	tb := table.New("T", 2)
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 2)
	for j := 0; j < rows; j++ {
		c := fmt.Sprintf("c%d", j)
		x := value.Var(fmt.Sprintf("x%d", j))
		tb.AddTuple(value.Const(c), x)
		tb.Global = append(tb.Global, cond.EqAtom(x, value.Const(c)))
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
	t.AddTuple(value.Var("wild1"), value.Var("wild2"))
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
