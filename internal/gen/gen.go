// Package gen generates random workloads for benchmarks and property
// tests: tables of every kind with tunable size and null density, matching
// member instances (by sampling a valuation), and near-miss instances
// (members with one fact perturbed). All generation is seeded and
// deterministic.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
	"pw/internal/wsd"
)

// Config tunes the random table generator.
type Config struct {
	Rows        int     // number of rows
	Arity       int     // tuple width
	Consts      int     // size of the constant pool
	NullDensity float64 // probability that a cell is a variable
	VarPool     int     // for e/g/c-tables: number of distinct variables to draw from (0 = all fresh, Codd style)
	NeqAtoms    int     // global inequality atoms (i/g/c-tables)
	LocalConds  float64 // probability that a row gets a local condition (c-tables)
	Seed        int64
}

// Generator produces tables and instances from a Config.
type Generator struct {
	cfg Config
	rng *rand.Rand
	nv  int
}

// New returns a generator for the configuration.
func New(cfg Config) *Generator {
	if cfg.Arity == 0 {
		cfg.Arity = 2
	}
	if cfg.Consts == 0 {
		cfg.Consts = 8
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (g *Generator) constant() sym.ID {
	return sym.Const(fmt.Sprintf("c%d", g.rng.Intn(g.cfg.Consts)))
}

func (g *Generator) variable() sym.ID {
	if g.cfg.VarPool > 0 {
		return sym.Var(fmt.Sprintf("v%d", g.rng.Intn(g.cfg.VarPool)))
	}
	g.nv++
	return sym.Var(fmt.Sprintf("v%d", g.nv))
}

func (g *Generator) cell() sym.ID {
	if g.rng.Float64() < g.cfg.NullDensity {
		return g.variable()
	}
	return g.constant()
}

// Table generates one random table named name.
func (g *Generator) Table(name string) *table.Table {
	t := table.New(name, g.cfg.Arity)
	for i := 0; i < g.cfg.Rows; i++ {
		vals := make(sym.Tuple, g.cfg.Arity)
		for j := range vals {
			vals[j] = g.cell()
		}
		row := table.Row{Values: vals}
		if g.rng.Float64() < g.cfg.LocalConds {
			row.Cond = cond.Conj(g.atom())
		}
		t.Add(row)
	}
	for i := 0; i < g.cfg.NeqAtoms; i++ {
		t.Global = append(t.Global, cond.NeqAtom(g.anyValue(), g.anyValue()))
	}
	return t
}

func (g *Generator) anyValue() sym.ID {
	if g.rng.Intn(2) == 0 {
		return g.constant()
	}
	return g.variable()
}

func (g *Generator) atom() cond.Atom {
	op := cond.Eq
	if g.rng.Intn(2) == 0 {
		op = cond.Neq
	}
	return cond.Atom{Op: op, L: g.anyValue(), R: g.anyValue()}
}

// CoddTable generates a Codd-table: every variable occurrence fresh, no
// conditions.
func CoddTable(seed int64, name string, rows, arity, consts int, nullDensity float64) *table.Table {
	g := New(Config{Rows: rows, Arity: arity, Consts: consts,
		NullDensity: nullDensity, Seed: seed})
	return g.Table(name)
}

// ETable generates an e-table: repeated variables from a pool, no
// conditions.
func ETable(seed int64, name string, rows, arity, consts, varPool int, nullDensity float64) *table.Table {
	g := New(Config{Rows: rows, Arity: arity, Consts: consts,
		NullDensity: nullDensity, VarPool: varPool, Seed: seed})
	return g.Table(name)
}

// ITable generates an i-table: fresh variables plus global inequalities.
func ITable(seed int64, name string, rows, arity, consts, neqAtoms int, nullDensity float64) *table.Table {
	g := New(Config{Rows: rows, Arity: arity, Consts: consts,
		NullDensity: nullDensity, NeqAtoms: neqAtoms, Seed: seed})
	t := g.Table(name)
	// Rebuild the global over variables that actually occur in rows, so
	// the inequalities bite.
	vars := t.VarIDs(nil, map[sym.ID]bool{})
	t.Global = nil
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < neqAtoms && len(vars) > 0; i++ {
		l := vars[rng.Intn(len(vars))]
		var r sym.ID
		if rng.Intn(2) == 0 && len(vars) > 1 {
			r = vars[rng.Intn(len(vars))]
		} else {
			r = sym.Const(fmt.Sprintf("c%d", rng.Intn(consts)))
		}
		t.Global = append(t.Global, cond.NeqAtom(l, r))
	}
	return t
}

// CTable generates a c-table with local conditions.
func CTable(seed int64, name string, rows, arity, consts, varPool int, nullDensity, localConds float64) *table.Table {
	g := New(Config{Rows: rows, Arity: arity, Consts: consts,
		NullDensity: nullDensity, VarPool: varPool, LocalConds: localConds, Seed: seed})
	return g.Table(name)
}

// MemberInstance samples a world of d (by drawing a random satisfying-ish
// valuation and retrying) and returns it; ok is false if no world was
// found within the attempt budget — callers should treat that as "skip".
// Values are drawn from d's constants in order of first occurrence, then
// one fresh constant of d's Δ′ per variable.
func MemberInstance(seed int64, d *table.Database) (*rel.Instance, bool) {
	rng := rand.New(rand.NewSource(seed))
	u := d.Universe()
	domain := d.ConstIDs(nil, map[sym.ID]bool{})
	prefix := table.NewDelta(nil, []*table.Database{d}).Prefix
	domain = append(domain, table.FreshConsts(prefix, u.Len())...)
	if len(domain) == 0 {
		domain = []sym.ID{sym.Const("c0")}
	}
	for attempt := 0; attempt < 64; attempt++ {
		v := valuation.Make(u)
		for s := range v.Vals {
			v.Vals[s] = domain[rng.Intn(len(domain))]
		}
		if w := v.Database(d); w != nil {
			return w, true
		}
	}
	return nil, false
}

// PerturbedInstance returns a copy of i with one fact replaced by a fresh
// fact over a junk constant — a near-miss workload for negative
// membership tests. The second return is false when i is empty.
func PerturbedInstance(seed int64, i *rel.Instance) (*rel.Instance, bool) {
	out := i.Clone()
	for _, r := range out.Relations() {
		fs := r.Facts()
		if len(fs) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		f := fs[rng.Intn(len(fs))].Clone()
		f[rng.Intn(len(f))] = fmt.Sprintf("junk%d", rng.Intn(1<<30))
		r.Add(f)
		return out, true
	}
	return nil, false
}

// RandomWSD generates a random world-set decomposition over a single
// relation R of the given arity: comps components, each either a
// tuple-level component with 1..maxAlts alternatives of 0..2 facts, or
// (one time in three, for positive arity) an attribute-level template
// whose slots are fixed or 2-value alternative lists — all constants
// drawn from a pool of consts constants. Overlapping supports are
// intentional — normalization (merge + vertical/horizontal split) runs
// as part of generation, so the result is always in product-normal
// form and routinely mixes both component granularities. Deterministic
// in the seed. The error is normalization's entanglement guard: a tiny
// constant pool can overlap so many components that their merged
// product exceeds wsd.MaxMergeAlts — callers pick a larger pool or
// fewer components.
func RandomWSD(seed int64, comps, maxAlts, arity, consts int) (*wsd.WSD, error) {
	if comps < 0 || maxAlts < 1 || arity < 0 || consts < 1 {
		return nil, fmt.Errorf("gen: RandomWSD needs comps >= 0, maxAlts >= 1, arity >= 0, consts >= 1 (got %d, %d, %d, %d)",
			comps, maxAlts, arity, consts)
	}
	rng := rand.New(rand.NewSource(seed))
	w := wsd.New(table.Schema{{Name: "R", Arity: arity}})
	for c := 0; c < comps; c++ {
		if arity > 0 && rng.Intn(3) == 0 {
			// Attribute-level component: one template, each slot fixed or
			// a two-value alternative list.
			cells := make([][]string, arity)
			for i := range cells {
				if rng.Intn(2) == 0 {
					cells[i] = []string{fmt.Sprintf("c%d", rng.Intn(consts))}
					continue
				}
				a, b := rng.Intn(consts), rng.Intn(consts)
				cells[i] = []string{fmt.Sprintf("c%d", a), fmt.Sprintf("c%d", b)}
			}
			if err := w.AddTemplateComponent("R", cells...); err != nil {
				panic("gen: " + err.Error())
			}
			continue
		}
		nAlts := 1 + rng.Intn(maxAlts)
		alts := make([]wsd.Alt, nAlts)
		for a := range alts {
			nFacts := rng.Intn(3)
			alt := make(wsd.Alt, 0, nFacts)
			for f := 0; f < nFacts; f++ {
				args := make(rel.Fact, arity)
				for i := range args {
					args[i] = fmt.Sprintf("c%d", rng.Intn(consts))
				}
				alt = append(alt, wsd.Fact{Rel: "R", Args: args})
			}
			alts[a] = alt
		}
		if err := w.AddComponent(alts...); err != nil {
			// Facts are built against the schema above; a rejection here is
			// a bug in this generator, not a data condition.
			panic("gen: " + err.Error())
		}
	}
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	return w, nil
}

// queryColPool is the column-name pool RandomPositiveQuery draws from.
// A small shared pool makes scans of different relations overlap in
// column names, so natural joins actually join.
var queryColPool = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// RandomPositiveQuery generates a seeded, deterministic positive
// relational-algebra query (no ≠ selections) over the given schema:
// the wsdalg-evaluable fragment, paired with RandomWSD so the
// differential suite can cross-validate decomposition-native answers
// against the worlds oracle and the lifted c-table path. Constants in
// selection predicates are drawn from the same c0..c{consts-1} pool the
// table and WSD generators use, so selections sometimes match. depth
// bounds the operator-tree height (0 = a bare scan). The query is
// schema-valid by construction; a validation failure is a generator bug
// and panics.
func RandomPositiveQuery(seed int64, schema table.Schema, consts, depth int) query.Algebra {
	if len(schema) == 0 || consts < 1 || depth < 0 {
		panic("gen: RandomPositiveQuery needs a non-empty schema, consts >= 1, depth >= 0")
	}
	for _, r := range schema {
		if r.Arity > len(queryColPool) {
			panic(fmt.Sprintf("gen: RandomPositiveQuery supports arity <= %d, got %s/%d",
				len(queryColPool), r.Name, r.Arity))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	g := &queryGen{rng: rng, schema: schema, consts: consts}
	outs := make([]query.Out, 1+rng.Intn(2))
	for i := range outs {
		outs[i] = query.Out{Name: string(rune('A' + i)), Expr: g.expr(depth)}
	}
	q := query.NewAlgebra(fmt.Sprintf("rq%d", seed), outs...)
	for _, o := range q.Outs {
		if _, err := o.Expr.Schema(); err != nil {
			panic("gen: RandomPositiveQuery built an invalid expression: " + err.Error())
		}
	}
	if !q.Positive() {
		panic("gen: RandomPositiveQuery built a non-positive query")
	}
	return q
}

// RandomWSAQuery generates a seeded world-set-algebra query: the
// RandomPositiveQuery operator pool extended with ≠ selections,
// difference, and the world-set operators possible/certain/choiceof
// (nesting allowed — certain(possible(...)), choiceof under diff, and
// so on). At most two choiceof occurrences appear per query: each one
// multiplies the explicit oracle's answer-world count by the operand's
// support size, and the differential suites expand those worlds
// explicitly. Single-output by construction for the same reason. The
// query is schema-valid by construction; a validation failure is a
// generator bug and panics.
func RandomWSAQuery(seed int64, schema table.Schema, consts, depth int) query.Algebra {
	if len(schema) == 0 || consts < 1 || depth < 0 {
		panic("gen: RandomWSAQuery needs a non-empty schema, consts >= 1, depth >= 0")
	}
	for _, r := range schema {
		if r.Arity > len(queryColPool) {
			panic(fmt.Sprintf("gen: RandomWSAQuery supports arity <= %d, got %s/%d",
				len(queryColPool), r.Name, r.Arity))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	g := &queryGen{rng: rng, schema: schema, consts: consts, wsa: true, choiceBudget: 2}
	q := query.NewAlgebra(fmt.Sprintf("wsa%d", seed),
		query.Out{Name: "A", Expr: g.expr(depth)})
	for _, o := range q.Outs {
		if _, err := o.Expr.Schema(); err != nil {
			panic("gen: RandomWSAQuery built an invalid expression: " + err.Error())
		}
	}
	return q
}

// queryGen holds the RandomPositiveQuery recursion state.
type queryGen struct {
	rng    *rand.Rand
	schema table.Schema
	consts int

	// wsa widens the operator pool to ≠/diff/possible/certain/choiceof;
	// choiceBudget caps choiceof occurrences (each one multiplies the
	// explicit oracle's answer-world count).
	wsa          bool
	choiceBudget int
}

// scan picks a relation and names its columns with distinct pool names.
func (g *queryGen) scan() algebra.Expr {
	r := g.schema[g.rng.Intn(len(g.schema))]
	perm := g.rng.Perm(len(queryColPool))
	cols := make([]string, r.Arity)
	for i := range cols {
		cols[i] = queryColPool[perm[i]]
	}
	return algebra.Scan(r.Name, cols...)
}

// cols reads an expression's (always valid) output schema.
func (g *queryGen) cols(e algebra.Expr) []string {
	cs, err := e.Schema()
	if err != nil {
		panic("gen: invalid intermediate expression: " + err.Error())
	}
	return cs
}

// expr builds a random expression of at most the given height: the
// positive operator pool, plus (for wsa generators) ≠ selections,
// difference and the world-set operators.
func (g *queryGen) expr(depth int) algebra.Expr {
	if depth == 0 {
		return g.scan()
	}
	top := 6
	if g.wsa {
		top = 10
	}
	switch g.rng.Intn(top) {
	case 0:
		return g.scan()
	case 1: // projection onto a non-empty column subset
		e := g.expr(depth - 1)
		cs := g.cols(e)
		k := 1 + g.rng.Intn(len(cs))
		perm := g.rng.Perm(len(cs))
		keep := make([]string, k)
		for i := 0; i < k; i++ {
			keep[i] = cs[perm[i]]
		}
		return algebra.Project{E: e, Cols: keep}
	case 2: // equality selection: col = col or col = const
		e := g.expr(depth - 1)
		cs := g.cols(e)
		n := 1 + g.rng.Intn(2)
		preds := make([]algebra.Pred, n)
		for i := range preds {
			l := algebra.Col(cs[g.rng.Intn(len(cs))])
			var r algebra.Operand
			if g.rng.Intn(2) == 0 && len(cs) > 1 {
				r = algebra.Col(cs[g.rng.Intn(len(cs))])
			} else {
				r = algebra.Lit(fmt.Sprintf("c%d", g.rng.Intn(g.consts)))
			}
			if g.wsa && g.rng.Intn(3) == 0 {
				// ≠ selections evaluate uniformly on decompositions;
				// exercise them alongside equality.
				preds[i] = algebra.NeqP(l, r)
			} else {
				preds[i] = algebra.EqP(l, r)
			}
		}
		return algebra.Select{E: e, Preds: preds}
	case 3: // rename one column to an unused pool name
		e := g.expr(depth - 1)
		cs := g.cols(e)
		used := make(map[string]bool, len(cs))
		for _, c := range cs {
			used[c] = true
		}
		var fresh []string
		for _, c := range queryColPool {
			if !used[c] {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) == 0 {
			return e
		}
		from := cs[g.rng.Intn(len(cs))]
		to := fresh[g.rng.Intn(len(fresh))]
		return algebra.Rename{E: e, From: []string{from}, To: []string{to}}
	case 4: // natural join (shared pool names make it selective)
		return algebra.Join{L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 6: // possible: collapse the operand's worlds into their union
		return algebra.Possible{E: g.expr(depth - 1)}
	case 7: // certain: collapse into the intersection
		return algebra.Certain{E: g.expr(depth - 1)}
	case 8: // difference of two same-schema variants of one subtree
		e := g.expr(depth - 1)
		cs := g.cols(e)
		var r algebra.Expr
		if g.rng.Intn(2) == 0 {
			r = algebra.Where(e, algebra.EqP(
				algebra.Col(cs[g.rng.Intn(len(cs))]),
				algebra.Lit(fmt.Sprintf("c%d", g.rng.Intn(g.consts)))))
		} else {
			rows := make([][]string, 1+g.rng.Intn(2))
			for i := range rows {
				row := make([]string, len(cs))
				for j := range row {
					row[j] = fmt.Sprintf("c%d", g.rng.Intn(g.consts))
				}
				rows[i] = row
			}
			r = algebra.ConstRel{Cols: append([]string(nil), cs...), Rows: rows}
		}
		return algebra.Diff{L: e, R: r}
	case 9: // choiceof, while the budget lasts (certain otherwise)
		if g.choiceBudget > 0 {
			g.choiceBudget--
			return algebra.ChoiceOf{E: g.expr(depth - 1)}
		}
		return algebra.Certain{E: g.expr(depth - 1)}
	default: // union of two same-schema branches of one subtree
		e := g.expr(depth - 1)
		cs := g.cols(e)
		sel := func() algebra.Expr {
			switch g.rng.Intn(3) {
			case 0:
				return e
			case 1:
				// A constant relation over the same columns: exercises
				// the evaluators' origin-free (certain) row paths.
				rows := make([][]string, g.rng.Intn(3))
				for i := range rows {
					row := make([]string, len(cs))
					for j := range row {
						row[j] = fmt.Sprintf("c%d", g.rng.Intn(g.consts))
					}
					rows[i] = row
				}
				return algebra.ConstRel{Cols: append([]string(nil), cs...), Rows: rows}
			default:
				return algebra.Where(e, algebra.EqP(
					algebra.Col(cs[g.rng.Intn(len(cs))]),
					algebra.Lit(fmt.Sprintf("c%d", g.rng.Intn(g.consts)))))
			}
		}
		return algebra.Union{L: sel(), R: sel()}
	}
}

// MillionWorldWSD builds the tracked benchmark decomposition: one
// certain fragment plus 20 independent binary components of two facts
// each — 2^20 = 1,048,576 worlds in ~40 facts. bench_test.go and the
// pwbench probes share this single builder so the benchmark and its
// gated probe can never drift apart.
func MillionWorldWSD() *wsd.WSD {
	w := wsd.New(table.Schema{{Name: "S", Arity: 2}})
	add := func(alts ...wsd.Alt) {
		if err := w.AddComponent(alts...); err != nil {
			panic("gen: " + err.Error())
		}
	}
	add(wsd.Alt{{Rel: "S", Args: rel.Fact{"hub", "ok"}}})
	for i := 0; i < 20; i++ {
		s := fmt.Sprintf("s%02d", i)
		add(
			wsd.Alt{{Rel: "S", Args: rel.Fact{s, "lo"}}, {Rel: "S", Args: rel.Fact{s + "b", "lo"}}},
			wsd.Alt{{Rel: "S", Args: rel.Fact{s, "hi"}}, {Rel: "S", Args: rel.Fact{s + "b", "hi"}}},
		)
	}
	// Disjoint supports by construction: normalization cannot fail.
	if err := w.Normalize(); err != nil {
		panic("gen: " + err.Error())
	}
	return w
}

// FatMillionWorldWSD builds the tracked update-benchmark decomposition:
// the MillionWorldWSD component structure (one certain hub fact plus 20
// independent binary choices, 2^20 worlds) but with 50 facts per
// alternative — ~2000 facts total. The fact volume is the point: a full
// renormalization re-factorizes every component after each operation,
// while the incremental engine re-normalizes only the components an
// operation touches, so the gap between the two is visible instead of
// drowning in fixed costs. bench_test.go and the pwbench WSDUpdate
// probes share this single builder so the benchmark and its gated probe
// can never drift apart.
func FatMillionWorldWSD() *wsd.WSD {
	w := wsd.New(table.Schema{{Name: "S", Arity: 2}})
	add := func(alts ...wsd.Alt) {
		if err := w.AddComponent(alts...); err != nil {
			panic("gen: " + err.Error())
		}
	}
	add(wsd.Alt{{Rel: "S", Args: rel.Fact{"hub", "ok"}}})
	for i := 0; i < 20; i++ {
		lo := make(wsd.Alt, 0, 50)
		hi := make(wsd.Alt, 0, 50)
		for j := 0; j < 50; j++ {
			s := fmt.Sprintf("s%02df%02d", i, j)
			lo = append(lo, wsd.Fact{Rel: "S", Args: rel.Fact{s, "lo"}})
			hi = append(hi, wsd.Fact{Rel: "S", Args: rel.Fact{s, "hi"}})
		}
		add(lo, hi)
	}
	// Disjoint supports by construction: normalization cannot fail.
	if err := w.Normalize(); err != nil {
		panic("gen: " + err.Error())
	}
	return w
}

// CenturyWSD builds the tracked attribute-level benchmark
// decomposition: one certain hub reading plus 100 sensor templates
// R(s000 {hi|lo}) … R(s099 {hi|lo}) — 2^100 ≈ 1.27·10^30 worlds in ~200
// symbols, a world set the tuple-level form could not even store as an
// explicit alternative list per sensor block without attribute
// factoring of the shared structure. bench_test.go and the pwbench
// WSDAttr probes share this single builder so the benchmark and its
// gated probe can never drift apart.
func CenturyWSD() *wsd.WSD {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	if err := w.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"hub", "ok"}}}); err != nil {
		panic("gen: " + err.Error())
	}
	for i := 0; i < 100; i++ {
		if err := w.AddTemplateComponent("R",
			[]string{fmt.Sprintf("s%03d", i)}, []string{"hi", "lo"}); err != nil {
			panic("gen: " + err.Error())
		}
	}
	// Distinct sensor ids: supports are disjoint, normalization cannot fail.
	if err := w.Normalize(); err != nil {
		panic("gen: " + err.Error())
	}
	return w
}

// GroupedWSD builds the σ-ladder decomposition: comps tuple-level
// components over R(k g v), component i in group g%04d (i mod groups).
// Each component has two alternatives of two facts sharing a value
// ({R(kNa g lo), R(kNb g lo)} or the same pair with hi), so it stays one
// tuple-level component with two choices. A σ[#g = group] reads
// comps/groups components whatever comps is, which is what a ladder
// over comps at a fixed group size measures. The world count is
// 2^comps.
func GroupedWSD(comps, groups int) *wsd.WSD {
	w := wsd.New(table.Schema{{Name: "R", Arity: 3}})
	for i := 0; i < comps; i++ {
		g := GroupName(i % groups)
		alt := func(v string) wsd.Alt {
			return wsd.Alt{
				{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%06da", i), g, v}},
				{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%06db", i), g, v}},
			}
		}
		if err := w.AddComponent(alt("lo"), alt("hi")); err != nil {
			panic("gen: " + err.Error())
		}
	}
	// Distinct keys: supports are disjoint, normalization cannot fail.
	if err := w.Normalize(); err != nil {
		panic("gen: " + err.Error())
	}
	return w
}

// GroupName is the g column constant of group j in GroupedWSD.
func GroupName(j int) string { return fmt.Sprintf("g%04d", j) }

// SensorTemplates draws the attribute-level shape of the serving
// benchmark's probe-mix database over A(s v): one certain component of
// eight hub facts A(hubNN ok), then per sensor a template
// A(sNNNNN {v1|v2|v3}), the sensor ids a permutation of 0..n-1 and the
// three values distinct, drawn from a six-value pool. It returns the
// decomposition unnormalized and its .pw text, written the way the
// benchmark writes it; both denote the same 3^n worlds.
func SensorTemplates(seed int64, n int) (*wsd.WSD, string) {
	pool := []string{"lo", "hi", "mid", "off", "low", "top"}
	rng := rand.New(rand.NewSource(seed))
	w := wsd.New(table.Schema{{Name: "A", Arity: 2}})
	var hubs wsd.Alt
	var b strings.Builder
	b.WriteString("@wsd\n  relation: A(2)\n  component:\n    alt:")
	for j := 0; j < 8; j++ {
		hubs = append(hubs, wsd.Fact{Rel: "A", Args: rel.Fact{fmt.Sprintf("hub%02d", j), "ok"}})
		sep := ","
		if j == 0 {
			sep = ""
		}
		fmt.Fprintf(&b, "%s A(hub%02d ok)", sep, j)
	}
	b.WriteByte('\n')
	if err := w.AddComponent(hubs); err != nil {
		panic("gen: " + err.Error())
	}
	for _, id := range rng.Perm(n) {
		p := rng.Perm(len(pool))
		s, vals := fmt.Sprintf("s%05d", id), []string{pool[p[0]], pool[p[1]], pool[p[2]]}
		if err := w.AddTemplateComponent("A", []string{s}, vals); err != nil {
			panic("gen: " + err.Error())
		}
		fmt.Fprintf(&b, "  component:\n    tmpl: A(%s {%s})\n", s, strings.Join(vals, "|"))
	}
	return w, b.String()
}
