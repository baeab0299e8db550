// Package wsdalg evaluates positive relational-algebra queries directly
// on world-set decompositions: Apply maps a wsd.WSD D and a query q to a
// new decomposition denoting exactly {q(W) : W ∈ rep(D)}, and Eval reads
// the possible and certain answer facts of that world set, without ever
// enumerating worlds. It is the query-engine layer on top of the
// decomposition backend, following the world-set-decomposition line of
// work (Olteanu, Koch & Antova, "World-set decompositions:
// expressiveness and efficient algorithms"; Antova, Koch & Olteanu,
// "10^(10^6) Worlds and Beyond"): positive algebra can be pushed through
// a decomposition with only local recombination, so the paper's §3–§5
// decision problems over query answers (POSS/CERT of answer facts,
// CONT of answer world-sets) run at decomposition scale.
//
// The evaluator represents each intermediate relation as a *decomposed
// relation*: a union of independent "parts", where a part is a
// deterministic function from the alternative choices of a few input
// choice *units* (its origins) to a set of rows. A unit is either a
// whole tuple-level component or one open slot of an attribute-level
// template — slot granularity is what keeps field products unexpanded:
// the slots of one template are independent axes, so parts touching
// different slots recombine freely without ever tabulating the
// template's cross product. Operators act as follows:
//
//   - scans split a relation along the input components that mention
//     it: one tabulated single-origin part per tuple-level component,
//     and one symbolic template part per attribute-level component
//     (out-columns referencing slots, no materialization). The
//     decomposition's posting index names those components, so a scan
//     reads only them; a σ with a col = const conjunct directly above a
//     scan — or above a π on a scan that keeps the column, the shape the
//     planner's column pruning writes — hands the conjunct down as a
//     probe, and the scan reads only the components posted under that
//     constant;
//   - selection, projection and renaming are tuple-local, so they map
//     tabulated parts' alternatives pointwise; on template parts they
//     stay symbolic — selection compiles its predicates against the
//     slot references and projection narrows the origin set to the
//     slots still referenced, so a π over a few fields of a wide
//     template depends on exactly those fields' units;
//   - join distributes over the union of parts; each pairwise join
//     merges the two parts' origin sets and tabulates the joined rows
//     over the merged choice space (the only place where the product
//     structure coarsens, and the only blow-up — guarded by the same
//     wsd.MaxMergeAlts bound Normalize uses). Template parts tabulate
//     lazily here, over their narrowed origins only — "only the joined
//     slots" — which keeps the MaxMergeAlts pressure proportional to
//     the fields a query actually correlates;
//   - union concatenates part lists (no recombination at all);
//   - diff subtracts per world: each left part re-tabulates over its
//     origins merged with every right-side origin (the subtrahend's
//     value depends on all of them jointly), guarded by MaxMergeAlts —
//     the "where decidable on the decomposition" rule;
//   - the world-set operators (Koch's compositional algebra): possible
//     collapses the operand into its support — the union of its value
//     over every world, a certain origin-free part; certain keeps the
//     rows one group of the operand's parts yields under every joint
//     choice of its units (the readout's tuple-certainty test, see
//     answers.go) — the intersection over every world; choiceof
//     appends a synthetic choice unit ranging over the
//     operand's support and restricts the value to the chosen tuple in
//     the worlds where it is available (empty stays empty, and in
//     worlds where the chosen tuple is absent the value collapses onto
//     a canonical available tuple — a duplicate of another choice's
//     world, so the represented world set is exact).
//
// The final answer decomposition groups correlated parts (shared
// origins) into components, one alternative per joint choice, and hands
// the result to wsd.Normalize: its counting-argument factorizer merges
// answer components whose fact supports collide (the same answer fact
// produced along different paths) and re-splits whatever became
// independent, so the returned WSD satisfies all decomposition
// invariants and Count is the exact number of distinct answers. The
// possible and certain answer facts need none of that: Eval reads them
// straight off the grouped parts (answers.go). Both run one walk — the
// same operators, the same grouping, the same accounting — and differ
// only in that last step.
//
// Every step is exact — parts tabulate per-choice values, never
// approximations — so rep(Apply(D, q)) = q(rep(D)) world-for-world. The
// supported fragment is the full extended relational algebra of
// internal/algebra — positive operators, ≠ selections, per-world
// difference and the world-set operators — plus the identity query;
// Supported gates the entry points (first-order and DATALOG queries
// stay on the per-instance engines) and the CLIs turn its error into
// their "unsupported fragment" exit. Blow-ups surface as ErrEntangled,
// never as silent approximation.
package wsdalg

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/unionfind"
	"pw/internal/wsd"
)

// ErrUnsupported marks queries outside the decomposition-evaluable
// fragment (relational algebra — including ≠ selections, diff and the
// world-set operators — and the identity query). First-order and
// DATALOG queries stay on the per-instance engines.
var ErrUnsupported = errors.New("query outside the algebra fragment evaluable on decompositions")

// ErrEntangled is wrapped by evaluation errors when a join or the final
// component assembly would have to tabulate more than wsd.MaxMergeAlts
// joint alternatives: the answer decomposition is too entangled to
// build without degenerating into a world list.
var ErrEntangled = errors.New("answer decomposition too entangled")

// Supported reports whether q lies in the fragment Eval and Apply
// handle: nil for the identity query and for relational-algebra queries
// (the whole extended grammar — ≠ selections, diff and the world-set
// operators evaluate natively; blow-ups are a per-evaluation
// ErrEntangled, not a fragment refusal), an ErrUnsupported-wrapping
// error otherwise.
func Supported(q query.Query) error {
	switch q.(type) {
	case query.Identity:
		return nil
	case query.Algebra:
		return nil
	default:
		return fmt.Errorf("%w: %s is not a relational-algebra query", ErrUnsupported, q.Label())
	}
}

// Options selects how Eval and Apply evaluate a query.
type Options struct {
	// Decision picks the form evaluated. Nil prices q and evaluates the
	// form the planner chooses; Written(q) evaluates q as written; a
	// decision an earlier call returned — for the same q, possibly on
	// another version of the decomposition — is evaluated without
	// pricing.
	Decision *Decision
	// Cost, when non-nil, makes the run observed: it receives the run's
	// counters, and the call returns a Plan whose Cost holds exactly this
	// run's. A nil sink returns a nil plan and does no plan bookkeeping.
	Cost *obs.Cost
}

// Eval evaluates a supported query on a decomposition and reads the
// possible and certain answer facts of {q(W) : W ∈ rep(D)} straight off
// the evaluated parts (see Answers): no answer decomposition is assembled
// or normalized. It returns the plan (nil unless o.Cost is set) and the
// decision it evaluated, which a later call for the same q may reuse.
// Errors: unsupported queries (ErrUnsupported), schema errors from the
// algebra layer, and the ErrEntangled blow-up guard; on error an
// observed run's plan is still returned, annotated with the error class
// and truncated at the failing node.
func Eval(w *wsd.WSD, q query.Query, o Options) (*Answers, *Plan, *Decision, error) {
	r, pl, d, err := newEvaluator(w).run(q, o, false)
	return r.ans, pl, d, err
}

// Apply is Eval returning the answer world set itself: a normalized
// decomposition with
//
//	rep(Apply(D, q)) = { q(W) : W ∈ rep(D) },
//
// whose schema is the query's output vector (one relation per Out).
func Apply(w *wsd.WSD, q query.Query, o Options) (*wsd.WSD, *Plan, *Decision, error) {
	r, pl, d, err := newEvaluator(w).run(q, o, true)
	return r.out, pl, d, err
}

// result is one run's output: the answer sets (Eval) or the answer world
// set (Apply).
type result struct {
	ans *Answers
	out *wsd.WSD
}

// run is the one evaluation behind Eval and Apply: it settles the form
// (pricing q when no decision is given), then walks it — observed
// against a private cost sink that is folded into o.Cost afterwards, so
// Plan.Cost reports exactly this run even when o.Cost is a shared
// request-wide sink (additive kinds add, high-water kinds max).
func (ev *evaluator) run(q query.Query, o Options, assemble bool) (result, *Plan, *Decision, error) {
	d := o.Decision
	if d == nil {
		d = ev.decide(q)
	}
	if o.Cost == nil {
		r, err := ev.walk(d.form, assemble, nil, nil)
		return r, nil, d, err
	}
	ci := obs.NewCost()
	pl := &Plan{Query: q.Label(), Planner: d.planner()} // the query as asked, not as rewritten
	start := time.Now()
	r, err := ev.walk(d.form, assemble, ci, pl)
	switch {
	case err != nil:
	case assemble:
		pl.WorldCount = r.out.Count().String()
	default:
		// No answer world set is built: the answer sets range over the
		// input's worlds.
		pl.WorldCount = ev.w.Count().String()
	}
	pl.DurUS = time.Since(start).Microseconds()
	pl.Cost = ci.Counters()
	pl.Error = ErrorClass(err)
	o.Cost.AddSnapshot(ci.Snapshot())
	return r, pl, d, err
}

// walk evaluates q, accounting to c (nil: unobserved) and filling pl
// (nil: no plan bookkeeping at all on the hot path): every output
// expression is walked, the parts are grouped under the assemble node,
// and then either the answer sets are read off the groups or they are
// assembled into an answer decomposition and normalized. The identity
// query needs no walk: its answer world set is the input.
func (ev *evaluator) walk(q query.Query, assemble bool, c *obs.Cost, pl *Plan) (result, error) {
	if err := ev.start(q, c, pl); err != nil {
		return result{}, err
	}
	if query.IsIdentity(q) {
		if assemble {
			return result{out: ev.w.Clone()}, nil
		}
		return result{ans: ev.readInput(pl)}, nil
	}
	a := q.(query.Algebra)
	schema, err := outputSchema(a)
	if err != nil {
		return result{}, err
	}
	if ev.w.Empty() {
		// rep(D) = ∅ ⇒ the answer world-set is ∅ too (there is no world
		// to query). A component with zero alternatives is its canonical
		// form; the answer sets are empty.
		if !assemble {
			return result{ans: newAnswers(schema)}, nil
		}
		out := wsd.New(schema)
		if err := out.AddComponent(); err != nil {
			return result{}, err
		}
		return result{out: out}, out.Normalize()
	}

	ev.begin(false, c, pl)
	parts, err := ev.walkOuts(a)
	if err != nil {
		return result{}, err
	}
	c.Add(obs.EvalParts, int64(len(parts)))

	var asm *PlanNode
	var asmStart time.Time
	if pl != nil {
		asm = &PlanNode{Op: "assemble"}
		pl.Assemble = asm
		ev.cur = asm
		asmStart = time.Now()
	}
	var r result
	if assemble {
		r.out = wsd.New(schema)
		err = ev.assemble(r.out, parts, asm)
	} else {
		r.ans, err = ev.readout(schema, parts, asm)
	}
	if asm != nil {
		asm.Act.DurUS = sinceUS(asmStart)
		ev.cur = nil
		if r.ans != nil {
			pl.Readout = r.ans.stats(asm.Act.DurUS)
		}
	}
	if err != nil {
		return result{}, err
	}
	if assemble {
		err = ev.normalize(r.out, c, pl)
	}
	return r, err
}

// normalize runs the answer-side Normalize, accounting to the same sink:
// its merges, splits and folds are part of this evaluation's cost. When
// planning, the counter deltas around the call are the Normalize
// record's actuals.
func (ev *evaluator) normalize(out *wsd.WSD, c *obs.Cost, pl *Plan) error {
	var before obs.CostSnapshot
	var start time.Time
	if pl != nil {
		before = c.Snapshot()
		start = time.Now()
	}
	out.SetObsCost(c)
	err := out.Normalize()
	out.SetObsCost(nil)
	if pl != nil {
		after := c.Snapshot()
		pl.Normalize = &NormalizeStats{
			ComponentsMerged: after.Get(obs.NormComponentsMerged) - before.Get(obs.NormComponentsMerged),
			VerticalSplits:   after.Get(obs.NormVerticalSplits) - before.Get(obs.NormVerticalSplits),
			CertainFolds:     after.Get(obs.NormCertainFolds) - before.Get(obs.NormCertainFolds),
			DurUS:            time.Since(start).Microseconds(),
		}
	}
	return err
}

// start opens an evaluation: it gates the fragment and records the
// input's size on the cost sink and the plan.
func (ev *evaluator) start(q query.Query, c *obs.Cost, pl *Plan) error {
	if err := Supported(q); err != nil {
		return err
	}
	c.Add(obs.EvalComponents, int64(ev.w.Components()))
	if pl != nil {
		pl.Components = int64(ev.w.Components())
	}
	return nil
}

// outputSchema is the answer's schema: one relation per Out, arity from
// the expression.
func outputSchema(a query.Algebra) (table.Schema, error) {
	s := make(table.Schema, 0, len(a.Outs))
	for i, o := range a.Outs {
		cols, err := o.Expr.Schema()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		if slices.ContainsFunc(a.Outs[:i], func(p query.Out) bool { return p.Name == o.Name }) {
			return nil, fmt.Errorf("%s: duplicate output relation %s", a.Label(), o.Name)
		}
		s = append(s, table.SchemaRel{Name: o.Name, Arity: len(cols)})
	}
	return s, nil
}

// walkOuts evaluates every output expression of a — the walk both
// readings share — and tags the resulting parts with their output
// relation. When explaining, each output gets an "out" plan node.
func (ev *evaluator) walkOuts(a query.Algebra) ([]taggedPart, error) {
	var parts []taggedPart
	for ri, o := range a.Outs {
		var outNode *PlanNode
		if ev.plan != nil {
			outNode = &PlanNode{Op: "out", Detail: o.Name}
			ev.plan.Outs = append(ev.plan.Outs, outNode)
			ev.cur = outNode
		}
		d, err := ev.eval(o.Expr)
		if err != nil {
			outNode.markError(err)
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		if outNode != nil {
			outNode.Act.Parts = int64(len(d.parts))
		}
		for _, p := range d.parts {
			parts = append(parts, taggedPart{rel: ri, p: p})
		}
	}
	ev.cur = nil
	return parts, nil
}

// price runs the bound reading over a whole query and returns the
// planner's cost of it: the node estimates setEst charges plus the
// final assembly's.
func (ev *evaluator) price(a query.Algebra) (int64, error) {
	ev.begin(true, nil, nil)
	parts, err := ev.walkOuts(a)
	if err != nil {
		return 0, err
	}
	if err := ev.assemble(nil, parts, nil); err != nil {
		return 0, err
	}
	return ev.predicted, nil
}

// taggedPart is one answer part tagged with the output relation it
// feeds (a schema position of the answer decomposition) — the unit of
// work the component assembly groups.
type taggedPart struct {
	rel int
	p   part
}

// assemble groups correlated parts (shared origins) into components of
// out, one alternative per joint choice. Origin-free parts (constant
// rows) are certain; each becomes a single-alternative component of its
// own and Normalize merges all certain components afterwards. asm (nil
// when not explaining) receives the assembly estimates and actuals. The
// bound reading records the estimate and emits nothing (out may be nil).
// Normalization is the caller's job.
func (ev *evaluator) assemble(out *wsd.WSD, parts []taggedPart, asm *PlanNode) error {
	groups, merged := originGroups(len(parts), func(i int) []int { return parts[i].p.origins })
	if asm != nil || ev.bound {
		ev.setEst(ev.groupEst(parts, groups, merged))
		if ev.bound {
			return nil
		}
	}

	for _, op := range parts {
		if len(op.p.origins) > 0 {
			continue
		}
		rows := op.p.at(nil, ev) // constant rows: no choice is read
		alt := make([]wsd.TupleFact, len(rows))
		for k, t := range rows {
			alt[k] = wsd.TupleFact{Rel: op.rel, Tuple: t}
		}
		if err := out.AddComponentTuples(alt); err != nil {
			asm.markError(err)
			return err
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}

	for g, members := range groups {
		// Template fast path: a lone answer template is itself an
		// attribute-level component of the answer — emit it factored,
		// never tabulating the field product. This is what lets σ/π/ρ
		// pipelines over 2^100-world attribute decompositions answer in
		// decomposition size.
		if len(members) == 1 {
			op := &parts[members[0]]
			if cells, ok := ev.templateCells(&op.p); ok {
				if err := out.AddTemplateCells(op.rel, cells...); err != nil {
					asm.markError(err)
					return err
				}
				if asm != nil {
					asm.Act.Parts++
				}
				continue
			}
		}

		origins := merged[g]
		space, err := ev.space(origins)
		if err != nil {
			asm.markError(err)
			return err
		}
		alts := make([][]wsd.TupleFact, 0, space)
		ev.odometer(origins, func(choice []int) bool {
			var alt []wsd.TupleFact
			for _, i := range members {
				op := &parts[i]
				for _, t := range op.p.at(choice, ev) {
					alt = append(alt, wsd.TupleFact{Rel: op.rel, Tuple: t})
				}
			}
			alts = append(alts, alt)
			return true
		})
		if err := out.AddComponentTuples(alts...); err != nil {
			asm.markError(err)
			return err
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}
	return nil
}

// originGroups partitions n parts (origin sets given by originsOf) into
// correlated groups: parts sharing an origin unit are functions of the
// same input choice, so they must land in one answer component.
// Origin-free parts join no group. It returns each group's member
// indices and merged origins, groups in order of first appearance; a
// single-member group's merged origins are that part's own slice, so
// callers only read them. The union-find runs over a local index of the
// touched units only, so the work follows the parts, not the input.
func originGroups(n int, originsOf func(int) []int) (groups [][]int, merged [][]int) {
	var touched []int
	for i := 0; i < n; i++ {
		touched = append(touched, originsOf(i)...)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	local := func(u int) int32 {
		i, _ := slices.BinarySearch(touched, u)
		return int32(i)
	}
	uf := unionfind.NewDense(len(touched))
	for i := 0; i < n; i++ {
		o := originsOf(i)
		for j := 1; j < len(o); j++ {
			uf.Union(local(o[0]), local(o[j]))
		}
	}
	index := make([]int, len(touched)) // union-find root → group number + 1
	gid := make([]int, n)
	var size []int
	for i := 0; i < n; i++ {
		o := originsOf(i)
		if len(o) == 0 {
			gid[i] = -1
			continue
		}
		r := uf.Find(local(o[0]))
		g := index[r] - 1
		switch {
		case g < 0:
			g = len(merged)
			index[r] = g + 1
			merged = append(merged, o) // shared until a second member merges in
			size = append(size, 0)
		case size[g] == 1:
			merged[g] = mergeOrigins(append([]int(nil), merged[g]...), o)
		default:
			merged[g] = mergeOrigins(merged[g], o)
		}
		gid[i] = g
		size[g]++
	}
	// Members list group by group in one flat slice.
	flat := make([]int, n)
	groups = make([][]int, len(merged))
	at := 0
	for g := range groups {
		groups[g] = flat[at : at : at+size[g]]
		at += size[g]
	}
	for i, g := range gid {
		if g >= 0 {
			groups[g] = append(groups[g], i)
		}
	}
	return groups, merged
}

// part is one factor of a decomposed relation: a deterministic function
// from the alternative choices of its origin units to a row set. It has
// three bodies:
//
//   - tabulated: alts indexed by the odometer over origins (last origin
//     fastest), each origin digit ranging over the unit's alternative
//     count;
//   - template (tmpl != nil): a symbolic single-row function — output
//     columns referencing slot units or constants, filtered by compiled
//     predicates — evaluated on demand and tabulated only when a join
//     needs it;
//   - bound (alts and tmpl nil): the bound reading's shape of a part
//     that was never tabulated — its origins and an upper bound on the
//     rows it would tabulate.
//
// origins is sorted and duplicate-free. An origin-free part (origins
// nil, one tabulated entry) is a constant row set.
type part struct {
	origins []int
	alts    [][]sym.Tuple
	tmpl    *tmplPart
	rows    int64 // row bound of a bound part
}

// tmplPart is the symbolic body of a template-derived part: one output
// row per surviving choice. A tmplCol with unit < 0 is the constant
// constID; otherwise the value is the unit's slot value under the
// current choice.
type tmplPart struct {
	out   []tmplCol
	preds []tmplPred
}

type tmplCol struct {
	unit    int
	constID sym.ID
}

type tmplPred struct {
	eq   bool
	l, r tmplCol
}

// at returns the part's row set under a full choice vector (indexed by
// unit).
func (p *part) at(choice []int, ev *evaluator) []sym.Tuple {
	if p.tmpl != nil {
		return p.tmpl.at(choice, ev)
	}
	idx := 0
	for _, o := range p.origins {
		idx = idx*int(ev.altCounts[o]) + choice[o]
	}
	return p.alts[idx]
}

// val resolves a symbolic column under a choice vector.
func (c tmplCol) val(choice []int, ev *evaluator) sym.ID {
	if c.unit < 0 {
		return c.constID
	}
	return ev.cells[c.unit][choice[c.unit]]
}

// at evaluates the template body: nil when a predicate fails, otherwise
// the single instantiated row.
func (t *tmplPart) at(choice []int, ev *evaluator) []sym.Tuple {
	for _, p := range t.preds {
		if p.eq != (p.l.val(choice, ev) == p.r.val(choice, ev)) {
			return nil
		}
	}
	row := make(sym.Tuple, len(t.out))
	for j, c := range t.out {
		row[j] = c.val(choice, ev)
	}
	return []sym.Tuple{row}
}

// unitsOf collects the sorted distinct units referenced by a template
// body — the exact origin set of a part with that body.
func (t *tmplPart) unitsOf() []int {
	var units []int
	add := func(c tmplCol) {
		if c.unit >= 0 {
			units = mergeOrigins(units, []int{c.unit})
		}
	}
	for _, c := range t.out {
		add(c)
	}
	for _, p := range t.preds {
		add(p.l)
		add(p.r)
	}
	return units
}

// dRel is a decomposed relation: named columns over a union of parts.
// The relation's value in a world is the union of every part's value at
// that world's choice vector.
type dRel struct {
	cols  []string
	parts []part
}

// origins is the sorted union of the parts' origins: every unit the
// relation's value depends on.
func (d *dRel) origins() []int {
	var units []int
	for i := range d.parts {
		units = mergeOrigins(units, d.parts[i].origins)
	}
	return units
}

// evaluator carries the per-query state: the input decomposition's
// choice units — its per-version axis table (wsd.Axes), shared read-only
// with every other evaluator of the version, plus this query's synthetic
// units — and a per-relation scan cache (the same base relation scanned
// twice shares its parts; parts are never mutated after construction).
// One evaluator serves every walk of a query — the planner's bound
// walks and the tabulating evaluation — so they share one scan cache
// and one scratch choice vector.
//
// A walk runs in one of two readings of the same operators. The
// tabulating reading computes each part's value under every joint
// choice. The bound reading (the planner's) propagates only shapes:
// origins, row bounds and symbolic template bodies, never sweeping a
// joint space, and it sums the operators' estimates into predicted.
type evaluator struct {
	w    *wsd.WSD
	axes *wsd.Axes
	base int // units backed by the input; later ones are synthetic (choiceof)
	// altCounts is the alternative count per unit: the axis table's
	// capacity-clipped slice, so the first synthetic unit appended
	// copies it and the shared table is never written.
	altCounts []int32
	cells     [][]sym.ID // per input unit: open-slot values (the axis table's)
	choice    []int      // scratch choice vector every sweep shares (see odometer)
	scans     map[scanKey][]part
	bound     bool      // bound reading: nothing tabulates
	predicted int64     // bound reading: the walk's cost so far (see setEst)
	cost      *obs.Cost // per-request sink (nil when untraced)
	plan      *Plan     // plan under construction (nil when not explaining)
	cur       *PlanNode // node receiving space() actuals right now
	// cands and facts are the certain sweep's scratch (groupCertain).
	cands, facts []wsd.TupleFact
}

func newEvaluator(w *wsd.WSD) *evaluator {
	return &evaluator{w: w, scans: map[scanKey][]part{}}
}

// units returns the number of choice units, synthetic ones included.
func (ev *evaluator) units() int { return len(ev.altCounts) }

// begin starts a walk in the given reading with the given sinks. The
// first walk loads the input's axis table — an evaluation that never
// walks (the identity query, the empty world set) never builds one; a
// later walk drops the synthetic units an earlier one added. The
// input's units and the scan cache carry over.
func (ev *evaluator) begin(bound bool, c *obs.Cost, pl *Plan) {
	if ev.axes == nil {
		ev.axes = ev.w.Axes()
		ev.base = ev.axes.Len()
		ev.altCounts, ev.cells = ev.axes.Counts(), ev.axes.Cells()
	}
	ev.altCounts = ev.altCounts[:ev.base]
	ev.bound, ev.predicted = bound, 0
	ev.cost, ev.plan, ev.cur = c, pl, nil
}

// space returns the joint alternative count of a set of origins,
// guarded by wsd.MaxMergeAlts. The bound reading sweeps nothing: it
// returns the saturating product, unguarded and unrecorded.
func (ev *evaluator) space(origins []int) (int, error) {
	if ev.bound {
		return int(ev.originsProduct(origins)), nil
	}
	space := 1
	for _, o := range origins {
		space *= int(ev.altCounts[o])
		if space > wsd.MaxMergeAlts {
			return 0, fmt.Errorf("%w: %d correlated components need %d+ joint alternatives (limit %d)",
				ErrEntangled, len(origins), space, wsd.MaxMergeAlts)
		}
	}
	// Every space() call is followed by an odometer sweep of exactly
	// `space` joint alternatives, so this is also the tabulation count.
	// The same numbers land on the current plan node, which is what
	// makes plan-node actuals reconcile with the cost counters.
	ev.cost.Max(obs.EvalMergeSpaceMax, int64(space))
	ev.cost.Add(obs.EvalAltsTabulated, int64(space))
	if ev.cur != nil {
		ev.cur.Act.sweep(int64(space))
	}
	return space, nil
}

// odometer enumerates every choice vector over the given origins (last
// origin fastest, matching part.at's indexing), calling fn once per
// combination until fn returns false. The vector is the evaluator's
// scratch, sized for every unit that exists now: sweeps never nest, and
// each writes the digits of its own origins before any read.
func (ev *evaluator) odometer(origins []int, fn func(choice []int) bool) {
	if len(ev.choice) < ev.units() {
		ev.choice = make([]int, ev.units())
	}
	choice := ev.choice
	for _, o := range origins {
		choice[o] = 0
	}
	for {
		if !fn(choice) {
			return
		}
		i := len(origins) - 1
		for ; i >= 0; i-- {
			o := origins[i]
			choice[o]++
			if choice[o] < int(ev.altCounts[o]) {
				break
			}
			choice[o] = 0
		}
		if i < 0 {
			return
		}
	}
}

// scanProbe is a σ conjunct col = const handed down to the scan below
// the σ: the scan reads only the components posted under the constant.
// The σ still applies every conjunct, this one included.
type scanProbe struct {
	col   int    // column position in the scanned relation
	val   sym.ID // the constant; sym.None when never interned (nothing is posted)
	label string // the conjunct as written, for EXPLAIN
}

// probeOf returns the probe a σ hands its input: its first col = const
// conjunct, when the input is a scan or a π directly on a scan that
// keeps the column (the planner's column pruning writes σ(π(R))). Nil
// otherwise — a σ over any other operator (ρ included) leaves its input
// to read in full.
func probeOf(n algebra.Select) *scanProbe {
	e := n.E
	pi, isProject := e.(algebra.Project)
	if isProject {
		e = pi.E
	}
	r, ok := e.(algebra.Rel)
	if !ok {
		return nil
	}
	for _, p := range n.Preds {
		if p.Op != cond.Eq {
			continue
		}
		col, isCol := p.L.Column()
		c, isConst := p.R.Const()
		if !isCol {
			col, isCol = p.R.Column()
			c, isConst = p.L.Const()
		}
		j := slices.Index(r.Cols, col)
		if !isCol || !isConst || j < 0 || (isProject && !slices.Contains(pi.Cols, col)) {
			continue
		}
		val, ok := sym.LookupConst(c)
		if !ok {
			val = sym.None
		}
		return &scanProbe{col: j, val: val, label: p.String()}
	}
	return nil
}

// scanKey keys the scan cache: a relation read in full (col < 0) or
// through the posting of one (column, constant).
type scanKey struct {
	rel, col int
	val      sym.ID
}

// scanParts builds (and caches) the parts of base relation ri (a schema
// position): one tabulated part per tuple-level component whose support
// mentions the relation, and one symbolic template part per
// attribute-level component over it — the template's field product is
// never expanded. The components come from the posting index: all of
// the relation's, or with a probe only those posted under its constant
// — one part per component read. Rows are the decomposition's interned
// tuples, shared, not copied.
func (ev *evaluator) scanParts(ri int, probe *scanProbe) []part {
	key := scanKey{rel: ri, col: -1}
	if probe != nil {
		key.col, key.val = probe.col, probe.val
	}
	if ps, ok := ev.scans[key]; ok {
		return ps
	}
	comps, tmpls := ev.w.RelComponents(ri), ev.w.RelTemplates(ri)
	if probe != nil {
		comps, tmpls = ev.w.Posting(ri, probe.col, probe.val)
	}
	// Both lists ascend; merging them keeps the parts in component order.
	ps := make([]part, 0, len(comps)+len(tmpls))
	for len(comps) > 0 || len(tmpls) > 0 {
		if len(tmpls) == 0 || (len(comps) > 0 && comps[0] < tmpls[0]) {
			ci := int(comps[0])
			comps = comps[1:]
			u := ev.unitOf(ci, -1)
			alts := make([][]sym.Tuple, ev.altCounts[u])
			for ai := range alts {
				alts[ai] = ev.w.AltTuples(ci, ai, ri)
			}
			ps = append(ps, part{origins: []int{u}, alts: alts})
			continue
		}
		ci := int(tmpls[0])
		tmpls = tmpls[1:]
		_, cells, _ := ev.w.TemplateSlots(ci)
		t := &tmplPart{out: make([]tmplCol, len(cells))}
		for si, cell := range cells {
			if len(cell) == 1 {
				t.out[si] = tmplCol{unit: -1, constID: cell[0]}
				continue
			}
			t.out[si] = tmplCol{unit: ev.unitOf(ci, si)}
		}
		ps = append(ps, part{origins: t.unitsOf(), tmpl: t})
	}
	ev.scans[key] = ps
	return ps
}

// unitOf resolves an input (component, slot) pair to its unit index:
// the axis table's. Panics on a pair that is not a choice axis
// (programming error).
func (ev *evaluator) unitOf(ci, slot int) int {
	if u := ev.axes.Axis(ci, slot); u >= 0 {
		return u
	}
	panic("wsdalg: no unit for component slot")
}

// addUnit appends a synthetic choice unit — a fresh independent axis
// that is not backed by any input component (choiceof's nondeterministic
// pick) — to this evaluator's overlay; the shared axis table is never
// written. Safe mid-evaluation: the odometer's vector grows to the
// units that exist at each sweep, and the assembly indexes only the
// units its parts touch.
func (ev *evaluator) addUnit(altCount int) int {
	u := ev.units()
	ev.altCounts = append(ev.altCounts, int32(altCount))
	return u
}

// eval evaluates one algebra expression to a decomposed relation. When
// a plan is being built it wraps evalExpr in a PlanNode: the node is
// attached to its parent *before* the body runs (so an error retains
// the partial subtree), receives space() actuals while it is current,
// and is closed with parts/units/rows actuals and wall time afterwards.
// Without a plan it is evalExpr with zero overhead.
func (ev *evaluator) eval(e algebra.Expr) (dRel, error) {
	return ev.evalProbed(e, nil)
}

// evalProbed is eval with a scan probe (see probeOf): when probe is
// non-nil, e is a scan or a π directly on one, the scan reads only the
// probe's posting, and the scan's plan node names the probe.
func (ev *evaluator) evalProbed(e algebra.Expr, probe *scanProbe) (dRel, error) {
	if ev.plan == nil {
		return ev.evalExpr(e, probe)
	}
	node := &PlanNode{Op: opName(e), Detail: opDetail(e)}
	if _, isScan := e.(algebra.Rel); isScan && probe != nil {
		node.Detail += " probe[" + probe.label + "]"
	}
	parent := ev.cur
	if parent != nil {
		parent.Children = append(parent.Children, node)
	}
	ev.cur = node
	start := time.Now()
	d, err := ev.evalExpr(e, probe)
	node.Act.DurUS = sinceUS(start)
	ev.cur = parent
	if err != nil {
		node.markError(err)
		return d, err
	}
	node.Act.Parts = int64(len(d.parts))
	node.Act.Units = int64(len(d.origins()))
	node.Act.Rows = actRows(&d)
	return d, nil
}

// evalExpr is the operator dispatch. It mirrors algebra.evalInst case
// by case, lifted from row sets to parts. Each case records its
// estimate (via setEst, only when explaining or in the bound reading)
// from its inputs before its own work runs. probe applies to a scan; a
// π passes it to the scan below (see probeOf).
func (ev *evaluator) evalExpr(e algebra.Expr, probe *scanProbe) (dRel, error) {
	switch n := e.(type) {
	case algebra.ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(PlanStats{Parts: 1, Rows: int64(len(n.Rows))})
		}
		if ev.bound {
			return ev.certainRel(cols, nil, int64(len(n.Rows))), nil
		}
		rows := make([]sym.Tuple, 0, len(n.Rows))
		for _, r := range n.Rows {
			rows = append(rows, rel.Fact(r).Intern())
		}
		rows = sortDedupTuples(rows)
		return ev.certainRel(cols, rows, int64(len(rows))), nil

	case algebra.Rel:
		cols, err := n.Schema()
		if err != nil {
			return dRel{}, err
		}
		ri := slices.IndexFunc(ev.w.Schema(), func(s table.SchemaRel) bool { return s.Name == n.Name })
		if ri < 0 {
			return dRel{}, fmt.Errorf("wsdalg: relation %s not in decomposition", n.Name)
		}
		if ev.w.Schema()[ri].Arity != len(cols) {
			return dRel{}, fmt.Errorf("wsdalg: scan %s names %d columns, relation has arity %d",
				n.Name, len(cols), ev.w.Schema()[ri].Arity)
		}
		parts := ev.scanParts(ri, probe)
		if ev.estimating() {
			if probe != nil {
				ev.setEst(ev.probeScanEst(parts))
			} else {
				ev.setEst(ev.scanEst())
			}
		}
		ev.cost.Add(obs.EvalScanComps, int64(len(parts)))
		if ev.cur != nil {
			ev.cur.Act.Comps = int64(len(parts))
		}
		return dRel{cols: cols, parts: parts}, nil

	case algebra.Project:
		in, err := ev.evalProbed(n.E, probe)
		if err != nil {
			return dRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.drelStats(&in))
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = slices.Index(in.cols, c)
		}
		out := dRel{cols: n.Cols}
		for i := range in.parts {
			p := &in.parts[i]
			if t := p.tmpl; t != nil {
				// Symbolic projection: reindex the out-columns and narrow
				// the origins to the slots still referenced — a π over a
				// few fields of a wide template depends on those fields'
				// units only.
				nt := &tmplPart{out: make([]tmplCol, len(idx)), preds: t.preds}
				for i, j := range idx {
					nt.out[i] = t.out[j]
				}
				out.parts = append(out.parts, part{origins: nt.unitsOf(), tmpl: nt})
				continue
			}
			ev.mapPart(&out, p, func(t sym.Tuple) (sym.Tuple, bool) {
				g := make(sym.Tuple, len(idx))
				for i, j := range idx {
					g[i] = t[j]
				}
				return g, true
			})
		}
		return out, nil

	case algebra.Select:
		in, err := ev.evalProbed(n.E, probeOf(n))
		if err != nil {
			return dRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dRel{}, err
		}
		// Resolve each predicate once to column indices / interned
		// constants; alternatives are ground, so selection is an exact
		// per-row ID comparison — = and ≠ evaluate uniformly, which is
		// why ≠ selections are decidable on decompositions.
		preds, err := resolvePreds(n.Preds, in.cols)
		if err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.drelStats(&in))
		}
		out := dRel{cols: in.cols}
	selParts:
		for i := range in.parts {
			p := &in.parts[i]
			if t := p.tmpl; t != nil {
				// Symbolic selection: compile each predicate against the
				// template's column sources. Constant-only predicates
				// decide statically (a false one empties the part); the
				// rest filter per choice, origins untouched.
				nt := &tmplPart{out: t.out, preds: append([]tmplPred(nil), t.preds...)}
				for _, rp := range preds {
					tp := tmplPred{eq: rp.eq,
						l: tmplColOf(t, rp.lIdx, rp.lConst),
						r: tmplColOf(t, rp.rIdx, rp.rCon)}
					if tp.l.unit < 0 && tp.r.unit < 0 {
						if tp.eq != (tp.l.constID == tp.r.constID) {
							continue selParts // statically empty part
						}
						continue // statically true: drop the predicate
					}
					nt.preds = append(nt.preds, tp)
				}
				out.parts = append(out.parts, part{origins: nt.unitsOf(), tmpl: nt})
				continue
			}
			ev.mapPart(&out, p, func(t sym.Tuple) (sym.Tuple, bool) {
				for _, p := range preds {
					if !p.holds(t) {
						return nil, false
					}
				}
				return t, true
			})
		}
		return out, nil

	case algebra.Rename:
		in, err := ev.eval(n.E)
		if err != nil {
			return dRel{}, err
		}
		cols, err := n.Schema()
		if err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.drelStats(&in))
		}
		return dRel{cols: cols, parts: in.parts}, nil

	case algebra.Join:
		l, err := ev.eval(n.L)
		if err != nil {
			return dRel{}, err
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return dRel{}, err
		}
		cols, err := n.Schema()
		if err != nil {
			return dRel{}, err
		}
		return ev.join(l, r, cols)

	case algebra.Union:
		l, err := ev.eval(n.L)
		if err != nil {
			return dRel{}, err
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return dRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dRel{}, err
		}
		parts := make([]part, 0, len(l.parts)+len(r.parts))
		parts = append(parts, l.parts...)
		parts = append(parts, r.parts...)
		u := dRel{cols: l.cols, parts: parts}
		if ev.estimating() {
			ev.setEst(ev.drelStats(&u))
		}
		return u, nil

	case algebra.Diff:
		l, err := ev.eval(n.L)
		if err != nil {
			return dRel{}, err
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return dRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.diffEst(&l, &r))
		}
		return ev.diffRels(&l, &r)

	case algebra.Possible:
		in, err := ev.eval(n.E)
		if err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.possibleEst(&in))
		}
		rows, nRows, err := ev.supportRows(&in)
		if err != nil {
			return dRel{}, err
		}
		return ev.certainRel(in.cols, rows, nRows), nil

	case algebra.Certain:
		in, err := ev.eval(n.E)
		if err != nil {
			return dRel{}, err
		}
		if ev.estimating() {
			ev.setEst(ev.certainEst(&in))
		}
		rows, nRows, err := ev.certainRows(&in)
		if err != nil {
			return dRel{}, err
		}
		return ev.certainRel(in.cols, rows, nRows), nil

	case algebra.ChoiceOf:
		in, err := ev.eval(n.E)
		if err != nil {
			return dRel{}, err
		}
		support, nSupport, err := ev.supportRows(&in)
		if err != nil {
			return dRel{}, err
		}
		// A synthetic axis past MaxMergeAlts is refused by the first
		// space() over it; capping just past the guard keeps a saturated
		// row bound a valid alternative count.
		if nSupport > wsd.MaxMergeAlts {
			nSupport = wsd.MaxMergeAlts + 1
		}
		if ev.estimating() {
			ev.setEst(ev.choiceEst(&in, int(nSupport)))
		}
		return ev.choiceRel(&in, support, int(nSupport))
	}
	return dRel{}, fmt.Errorf("wsdalg: unknown expression %T", e)
}

// certainRel is the origin-free relation holding rows — in the bound
// reading, holding n rows at most (rows is nil there). It is empty when
// n is 0.
func (ev *evaluator) certainRel(cols []string, rows []sym.Tuple, n int64) dRel {
	switch {
	case n == 0:
		return dRel{cols: cols}
	case ev.bound:
		return dRel{cols: cols, parts: []part{{rows: n}}}
	}
	return dRel{cols: cols, parts: []part{{alts: [][]sym.Tuple{rows}}}}
}

// supportRows computes the support of a decomposed relation: the union
// of its value over every world, and its size. Tabulated parts
// contribute all their alternatives directly; template parts sweep
// their (MaxMergeAlts-guarded) origin space — the support of a wide
// template genuinely is its field product, so the guard bounds output
// size, not slack. The bound reading returns only the operand's row
// bound as the size.
func (ev *evaluator) supportRows(in *dRel) ([]sym.Tuple, int64, error) {
	if ev.bound {
		return nil, ev.rowsBound(in), nil
	}
	var rows []sym.Tuple
	for i := range in.parts {
		p := &in.parts[i]
		if p.tmpl != nil {
			if _, err := ev.space(p.origins); err != nil {
				return nil, 0, err
			}
		}
		rows = ev.appendSupport(rows, p)
	}
	rows = sortDedupTuples(rows)
	return rows, int64(len(rows)), nil
}

// certainRows computes the certain answer of a decomposed relation: the
// intersection of its value over every world, and its size — the
// readout's per-group tuple-certainty test (readRows) on the operand's
// parts, with no possible set gathered. The bound reading returns only
// the operand's row bound as the size.
func (ev *evaluator) certainRows(in *dRel) ([]sym.Tuple, int64, error) {
	if ev.bound {
		return nil, ev.rowsBound(in), nil
	}
	tp := make([]taggedPart, len(in.parts))
	for i, p := range in.parts {
		tp[i] = taggedPart{p: p}
	}
	_, cert, _, err := ev.readRows(tp, 1, false, nil)
	if err != nil {
		return nil, 0, err
	}
	return cert[0], int64(len(cert[0])), nil
}

// choiceRel builds choiceof(e): a fresh synthetic unit with nSupport
// alternatives ranges over the operand's support, and in each world the
// value is the chosen tuple when the operand offers it there. In worlds
// where the chosen tuple is absent the value collapses onto the first
// available tuple — a duplicate of the world another choice already
// produces, so the represented world set is exact — and an empty
// operand stays empty. The bound reading bounds the rows by the joint
// space, one row per joint choice.
func (ev *evaluator) choiceRel(in *dRel, support []sym.Tuple, nSupport int) (dRel, error) {
	if nSupport == 0 {
		return dRel{cols: in.cols}, nil
	}
	u := ev.addUnit(nSupport)
	all := mergeOrigins(in.origins(), []int{u})
	space, err := ev.space(all)
	if err != nil {
		return dRel{}, err
	}
	if ev.bound {
		return dRel{cols: in.cols, parts: []part{{origins: all, rows: int64(space)}}}, nil
	}
	alts := make([][]sym.Tuple, 0, space)
	ev.odometer(all, func(choice []int) bool {
		var avail []sym.Tuple
		for i := range in.parts {
			avail = append(avail, in.parts[i].at(choice, ev)...)
		}
		avail = sortDedupTuples(avail)
		var rows []sym.Tuple
		if len(avail) > 0 {
			if t := support[choice[u]]; containsTuple(avail, t) {
				rows = []sym.Tuple{t}
			} else {
				rows = []sym.Tuple{avail[0]}
			}
		}
		alts = append(alts, rows)
		return true
	})
	return dRel{cols: in.cols, parts: []part{{origins: all, alts: alts}}}, nil
}

// diffRels computes the per-world set difference l ∖ r. Each left part
// re-tabulates over its origins merged with every right-side origin —
// the subtrahend's value depends on all of them jointly — guarded by
// MaxMergeAlts; template left parts tabulate here, which is the "where
// decidable on the decomposition" rule.
func (ev *evaluator) diffRels(l, r *dRel) (dRel, error) {
	if len(l.parts) == 0 || len(r.parts) == 0 {
		return dRel{cols: l.cols, parts: l.parts}, nil
	}
	rOrigins := r.origins()
	out := dRel{cols: l.cols}
	for li := range l.parts {
		lp := &l.parts[li]
		origins := mergeOrigins(append([]int(nil), lp.origins...), rOrigins)
		if ev.bound {
			out.parts = append(out.parts, part{origins: origins, rows: ev.diffRowsUB(lp, rOrigins)})
			continue
		}
		space, err := ev.space(origins)
		if err != nil {
			return dRel{}, err
		}
		alts := make([][]sym.Tuple, 0, space)
		any := false
		ev.odometer(origins, func(choice []int) bool {
			var sub []sym.Tuple
			for ri := range r.parts {
				sub = append(sub, r.parts[ri].at(choice, ev)...)
			}
			rows := subtractRows(lp.at(choice, ev), sortDedupTuples(sub))
			if len(rows) > 0 {
				any = true
			}
			alts = append(alts, rows)
			return true
		})
		if any {
			out.parts = append(out.parts, part{origins: origins, alts: alts})
		}
	}
	return out, nil
}

// subtractRows returns ls minus the sorted set rs as a fresh sorted
// duplicate-free slice (ls is shared with its part and never mutated).
func subtractRows(ls, rs []sym.Tuple) []sym.Tuple {
	var out []sym.Tuple
	for _, t := range ls {
		if !containsTuple(rs, t) {
			out = append(out, t)
		}
	}
	return sortDedupTuples(out)
}

// containsTuple reports membership in a sorted duplicate-free row set.
func containsTuple(rows []sym.Tuple, t sym.Tuple) bool {
	_, found := slices.BinarySearchFunc(rows, t, slices.Compare[sym.Tuple])
	return found
}

// join is the ⋈ operator on evaluated operands: it records the join's
// estimate — whose row-match work the bound reading charges on top of
// the merge space — and distributes the join over the parts.
func (ev *evaluator) join(l, r dRel, cols []string) (dRel, error) {
	if ev.estimating() {
		s := ev.joinEst(&l, &r)
		ev.setEst(s)
		// Each joint alternative matches the sides' row sets against
		// each other, so a selection pushed below the join shrinks this
		// term — the quantity the planner's σ-pushdown exists to reduce.
		ev.predicted = satAdd(ev.predicted, s.Rows)
	}
	return ev.joinRels(l, r, cols)
}

// joinRels distributes the natural join over both unions of parts; each
// pairwise join tabulates over the merged origin space.
func (ev *evaluator) joinRels(l, r dRel, cols []string) (dRel, error) {
	var lShared, rShared, rExtra []int
	for j, c := range r.cols {
		if i := slices.Index(l.cols, c); i >= 0 {
			lShared = append(lShared, i)
			rShared = append(rShared, j)
		} else {
			rExtra = append(rExtra, j)
		}
	}
	out := dRel{cols: cols}
	for li := range l.parts {
		for ri := range r.parts {
			lp, rp := &l.parts[li], &r.parts[ri]
			origins := mergeOrigins(append([]int(nil), lp.origins...), rp.origins)
			if ev.bound {
				out.parts = append(out.parts, part{origins: origins, rows: ev.joinRowsUB(lp, rp)})
				continue
			}
			space, err := ev.space(origins)
			if err != nil {
				return dRel{}, err
			}
			alts := make([][]sym.Tuple, 0, space)
			any := false
			ev.odometer(origins, func(choice []int) bool {
				joined := joinTuples(lp.at(choice, ev), rp.at(choice, ev),
					lShared, rShared, rExtra, len(cols))
				if len(joined) > 0 {
					any = true
				}
				alts = append(alts, joined)
				return true
			})
			if any {
				out.parts = append(out.parts, part{origins: origins, alts: alts})
			}
		}
	}
	return out, nil
}

// joinTuples is the ground natural join of two row sets (hash on the
// shared columns with exact confirmation, as in algebra.evalInst).
func joinTuples(ls, rs []sym.Tuple, lShared, rShared, rExtra []int, width int) []sym.Tuple {
	if len(ls) == 0 || len(rs) == 0 {
		return nil
	}
	key := func(t sym.Tuple, at []int) uint64 {
		h := uint64(1469598103934665603)
		for _, j := range at {
			h ^= uint64(t[j])
			h *= 1099511628211
		}
		return h
	}
	index := make(map[uint64][]sym.Tuple, len(rs))
	for _, rt := range rs {
		index[key(rt, rShared)] = append(index[key(rt, rShared)], rt)
	}
	var out []sym.Tuple
	for _, lt := range ls {
	probe:
		for _, rt := range index[key(lt, lShared)] {
			for k := range lShared {
				if lt[lShared[k]] != rt[rShared[k]] {
					continue probe
				}
			}
			g := make(sym.Tuple, 0, width)
			g = append(g, lt...)
			for _, j := range rExtra {
				g = append(g, rt[j])
			}
			out = append(out, g)
		}
	}
	return sortDedupTuples(out)
}

// mapPart applies a tuple-local map (project, select, …) to every
// alternative of one tabulated part, appending the result to out;
// tuple-local operators distribute over the union of parts, so origins
// are untouched. A part whose every alternative maps to the empty set
// contributes nothing and is dropped. The bound reading keeps the part
// as it is: a tuple-local map cannot grow it. (Template parts transform
// symbolically at their call sites instead.)
func (ev *evaluator) mapPart(out *dRel, p *part, f func(sym.Tuple) (sym.Tuple, bool)) {
	if ev.bound {
		out.parts = append(out.parts, *p)
		return
	}
	alts := make([][]sym.Tuple, len(p.alts))
	any := false
	for ai, alt := range p.alts {
		var rows []sym.Tuple
		for _, t := range alt {
			if g, ok := f(t); ok {
				rows = append(rows, g)
			}
		}
		rows = sortDedupTuples(rows)
		if len(rows) > 0 {
			any = true
		}
		alts[ai] = rows
	}
	if any {
		out.parts = append(out.parts, part{origins: p.origins, alts: alts})
	}
}

// tmplColOf resolves one compiled predicate operand against a template
// body: a column index reads the template's column source, a constant
// stays a constant.
func tmplColOf(t *tmplPart, idx int, constID sym.ID) tmplCol {
	if idx >= 0 {
		return t.out[idx]
	}
	return tmplCol{unit: -1, constID: constID}
}

// resolvedPred is a selection predicate compiled to column indices and
// interned constants.
type resolvedPred struct {
	eq           bool
	lIdx, rIdx   int
	lConst, rCon sym.ID
}

func (p *resolvedPred) holds(t sym.Tuple) bool {
	l, r := p.lConst, p.rCon
	if p.lIdx >= 0 {
		l = t[p.lIdx]
	}
	if p.rIdx >= 0 {
		r = t[p.rIdx]
	}
	return p.eq == (l == r)
}

func resolvePreds(preds []algebra.Pred, cols []string) ([]resolvedPred, error) {
	out := make([]resolvedPred, len(preds))
	for i, p := range preds {
		rp := resolvedPred{eq: p.Op == cond.Eq, lIdx: -1, rIdx: -1}
		for side, o := range []algebra.Operand{p.L, p.R} {
			idx, id, err := resolveOperand(o, cols)
			if err != nil {
				return nil, err
			}
			if side == 0 {
				rp.lIdx, rp.lConst = idx, id
			} else {
				rp.rIdx, rp.rCon = idx, id
			}
		}
		out[i] = rp
	}
	return out, nil
}

func resolveOperand(o algebra.Operand, cols []string) (idx int, id sym.ID, err error) {
	if c, isConst := o.Const(); isConst {
		return -1, sym.Const(c), nil
	}
	col, _ := o.Column()
	j := slices.Index(cols, col)
	if j < 0 {
		return 0, 0, fmt.Errorf("wsdalg: select column %s not in %v", col, cols)
	}
	return j, 0, nil
}

// sortDedupTuples sorts rows lexicographically by interned ID and
// removes duplicates in place (relations are sets; projection and join
// can collapse rows).
func sortDedupTuples(ts []sym.Tuple) []sym.Tuple {
	slices.SortFunc(ts, slices.Compare[sym.Tuple])
	return slices.CompactFunc(ts, sym.Tuple.Equal)
}

// mergeOrigins unions a sorted origin list into dst (kept sorted and
// duplicate-free).
func mergeOrigins(dst, src []int) []int {
	for _, o := range src {
		if i, found := slices.BinarySearch(dst, o); !found {
			dst = slices.Insert(dst, i, o)
		}
	}
	return dst
}
