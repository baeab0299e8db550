// Plan introspection: an observed Eval or Apply (Options.Cost set)
// returns an EXPLAIN/ANALYZE tree. Each operator node of the query
// expression gets a PlanNode carrying *estimates* computed from the
// node's inputs before its own work runs
// (parts, distinct choice units, tabulated-row upper bounds, and — for
// the sweeping operators and the final assembly — the joint alternative
// space predicted from origin-space products) and *actuals* filled
// during evaluation (parts emitted, rows tabulated, joint alternatives
// actually swept, wall time). The estimates are sound upper bounds by
// construction: a join's predicted merge space is the exact sum of
// per-part-pair origin products, and evaluation either sweeps exactly
// that space or stops early (ErrEntangled), so Est.MergeSpace ≥
// Act.MergeSpace always — the property TestPlanEstimateSoundness pins
// across the difftest corpus.
//
// The estimate functions below are the only cost formulas in the
// package. The planner does not keep its own: it runs the same walk in
// the bound reading (see evaluator), where every operator records these
// estimates over bound parts, and a form's predicted cost is their sum.
//
// Actuals reconcile with the obs.Cost counters of the same run:
// summing Act.MergeSpace over all plan nodes gives eval_alts_tabulated,
// the max of Act.MaxSpace gives eval_merge_space_max, summing the out
// nodes' Act.Parts gives eval_parts, summing Act.Comps gives
// eval_scan_comps, and Plan.Components equals eval_components — the
// plan is the per-operator decomposition of the run's cost totals.
package wsdalg

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"pw/internal/algebra"
)

// PlanStats is one side (estimate or actual) of a plan node's numbers.
// Zero fields are omitted from JSON; MergeSpace/MaxSpace only apply to
// nodes that sweep joint alternative spaces (join, assemble), Comps
// (input components read) to scan actuals, DurUS only to actuals.
// Values saturate at math.MaxInt64 instead of overflowing — a saturated
// estimate still upper-bounds every actual.
type PlanStats struct {
	Parts      int64 `json:"parts,omitempty"`
	Units      int64 `json:"units,omitempty"`
	Comps      int64 `json:"comps,omitempty"`
	Rows       int64 `json:"rows,omitempty"`
	MergeSpace int64 `json:"merge,omitempty"`
	MaxSpace   int64 `json:"max_space,omitempty"`
	DurUS      int64 `json:"us,omitempty"`
}

// PlanNode is one operator of the evaluated expression tree (plus the
// synthetic "out" and "assemble" nodes). Error is the error class when
// evaluation failed at or below this node; the subtree evaluated so far
// is retained, so a refused query still explains where it blew up.
type PlanNode struct {
	Op       string      `json:"op"`
	Detail   string      `json:"detail,omitempty"`
	Est      PlanStats   `json:"est"`
	Act      PlanStats   `json:"act"`
	Error    string      `json:"error,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
}

// NormalizeStats is the answer-side Normalize's share of the run: the
// components its counting-argument factorizer merged, the vertical
// (attribute-level) splits and certain folds it performed, and its wall
// time.
type NormalizeStats struct {
	ComponentsMerged int64 `json:"merged"`
	VerticalSplits   int64 `json:"splits,omitempty"`
	CertainFolds     int64 `json:"folds,omitempty"`
	DurUS            int64 `json:"us"`
}

// ReadoutStats is a readout's share of the run, where an assembled
// answer has its Normalize: the sizes of the two answer sets it read
// (possible rows count template products unexpanded, saturating) and
// its wall time, group sweeps included.
type ReadoutStats struct {
	Possible int64 `json:"possible"`
	Certain  int64 `json:"certain"`
	DurUS    int64 `json:"us"`
}

// Plan is one evaluation's EXPLAIN/ANALYZE record: the input size, one
// node tree per output relation, the final grouping of the parts (the
// "assemble" node), then either the answer-side Normalize (an assembled
// answer) or the readout (answer sets read off the parts), a world
// count, and the run's full cost counters (the same obs.Cost names
// ?trace=1 reports). WorldCount is the exact world count of the
// assembled answer; a readout builds no answer world set, so its plan
// reports the input's — the worlds its answer sets range over.
type Plan struct {
	Query      string           `json:"query"`
	Components int64            `json:"components"`
	Outs       []*PlanNode      `json:"outs,omitempty"`
	Assemble   *PlanNode        `json:"assemble,omitempty"`
	Normalize  *NormalizeStats  `json:"normalize,omitempty"`
	Readout    *ReadoutStats    `json:"readout,omitempty"`
	WorldCount string           `json:"worlds,omitempty"`
	Cost       map[string]int64 `json:"cost,omitempty"`
	Error      string           `json:"error,omitempty"`
	Planner    *PlannerInfo     `json:"planner,omitempty"`
	DurUS      int64            `json:"us"`
}

// ErrorClass maps an evaluation error to its stable class name — the
// string spans, plan nodes and the server's flight recorder annotate
// with ("" for nil).
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrEntangled):
		return "entangled"
	case errors.Is(err, ErrUnsupported):
		return "unsupported"
	default:
		return "error"
	}
}

// markError annotates the node with the error's class. Nil-safe (the
// unplanned path threads nil nodes); the first class wins.
func (n *PlanNode) markError(err error) {
	if n == nil || err == nil {
		return
	}
	if n.Error == "" {
		n.Error = ErrorClass(err)
	}
}

// satAdd and satMul are int64 arithmetic saturating at math.MaxInt64
// (estimate inputs are non-negative).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// sinceUS is an operator node's wall time in microseconds, rounded up:
// a node that ran reports at least 1 (a cached scan takes well under a
// microsecond), so a zero duration only ever means "not timed".
func sinceUS(start time.Time) int64 {
	return (time.Since(start).Nanoseconds() + 999) / 1000
}

// opName names an operator node; opDetail adds the human-facing
// argument (relation name, projected columns, predicates).
func opName(e algebra.Expr) string {
	switch e.(type) {
	case algebra.ConstRel:
		return "const"
	case algebra.Rel:
		return "scan"
	case algebra.Project:
		return "project"
	case algebra.Select:
		return "select"
	case algebra.Rename:
		return "rename"
	case algebra.Join:
		return "join"
	case algebra.Union:
		return "union"
	case algebra.Diff:
		return "diff"
	case algebra.Possible:
		return "possible"
	case algebra.Certain:
		return "certain"
	case algebra.ChoiceOf:
		return "choiceof"
	}
	return fmt.Sprintf("%T", e)
}

func opDetail(e algebra.Expr) string {
	switch n := e.(type) {
	case algebra.ConstRel:
		return fmt.Sprintf("%d rows", len(n.Rows))
	case algebra.Rel:
		return n.Name
	case algebra.Project:
		return strings.Join(n.Cols, ",")
	case algebra.Select:
		ps := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			ps[i] = p.String()
		}
		return strings.Join(ps, ", ")
	case algebra.Rename:
		pairs := make([]string, len(n.From))
		for i := range n.From {
			pairs[i] = n.From[i] + ">" + n.To[i]
		}
		return strings.Join(pairs, ",")
	}
	return ""
}

// originsProduct is the joint alternative count of an origin set,
// saturating — evaluator.space's bound reading: no guard, no cost
// recording.
func (ev *evaluator) originsProduct(origins []int) int64 {
	prod := int64(1)
	for _, o := range origins {
		prod = satMul(prod, int64(ev.altCounts[o]))
	}
	return prod
}

// rowsUB upper-bounds the rows a part can tabulate: the alternatives'
// total row count for a tabulated body, the origin-space product for a
// template body (one row per joint choice at most), the carried bound
// for a bound part.
func (ev *evaluator) rowsUB(p *part) int64 {
	switch {
	case p.tmpl != nil:
		return ev.originsProduct(p.origins)
	case p.alts == nil:
		return p.rows
	}
	var n int64
	for _, alt := range p.alts {
		n = satAdd(n, int64(len(alt)))
	}
	return n
}

// rowsBound sums the row bounds of a decomposed relation's parts.
func (ev *evaluator) rowsBound(d *dRel) int64 {
	var n int64
	for i := range d.parts {
		n = satAdd(n, ev.rowsUB(&d.parts[i]))
	}
	return n
}

// drelStats summarizes a decomposed relation as estimate input: parts,
// distinct choice units, tabulated-rows upper bound. Tuple-local
// operators can only shrink all three, so the input's stats are the
// node's estimate.
func (ev *evaluator) drelStats(d *dRel) PlanStats {
	return PlanStats{Parts: int64(len(d.parts)), Units: int64(len(d.origins())), Rows: ev.rowsBound(d)}
}

// sweep accounts one joint-space sweep of the given size: MergeSpace
// sums the sweeps, MaxSpace keeps the largest.
func (s *PlanStats) sweep(space int64) {
	s.MergeSpace = satAdd(s.MergeSpace, space)
	s.MaxSpace = max(s.MaxSpace, space)
}

// spaceEst predicts sweeping each origin set once: MergeSpace sums the
// joint products, MaxSpace is the largest, Units counts the distinct
// units.
func (ev *evaluator) spaceEst(sets [][]int) PlanStats {
	var s PlanStats
	var units []int
	for _, origins := range sets {
		units = mergeOrigins(units, origins)
		s.sweep(ev.originsProduct(origins))
	}
	s.Units = int64(len(units))
	return s
}

// scanEst bounds a base-relation scan from the raw decomposition: at
// most one part per component, every unit potentially touched, and (for
// tabulated rows) each alternative's full fact list — template
// components scan symbolically and tabulate nothing.
func (ev *evaluator) scanEst() PlanStats {
	return PlanStats{Parts: int64(ev.w.Components()), Units: int64(ev.units()), Rows: ev.w.AltFactCount()}
}

// probeScanEst is a probed scan's estimate: the posting names exactly
// the components the scan reads, one part each, so the estimate is the
// shape of what it read — parts, units and (as in scanEst, templates
// tabulating nothing) the tuple-level rows.
func (ev *evaluator) probeScanEst(parts []part) PlanStats {
	d := dRel{parts: parts}
	return PlanStats{Parts: int64(len(parts)), Units: int64(len(d.origins())), Rows: actRows(&d)}
}

// joinEst predicts a join before tabulation: every part pair tabulates
// over its merged origin product, so MergeSpace is the exact sum of
// those products (the evaluation sweeps exactly this space unless it
// stops early on ErrEntangled — which only makes the actual smaller),
// and Rows multiplies the operands' row bounds pairwise.
func (ev *evaluator) joinEst(l, r *dRel) PlanStats {
	s := PlanStats{Parts: satMul(int64(len(l.parts)), int64(len(r.parts))),
		Units: int64(len(mergeOrigins(l.origins(), r.origins())))}
	for li := range l.parts {
		for ri := range r.parts {
			origins := mergeOrigins(append([]int(nil), l.parts[li].origins...), r.parts[ri].origins)
			s.sweep(ev.originsProduct(origins))
			s.Rows = satAdd(s.Rows, ev.joinRowsUB(&l.parts[li], &r.parts[ri]))
		}
	}
	return s
}

// joinRowsUB bounds the rows one pairwise part join tabulates.
func (ev *evaluator) joinRowsUB(lp, rp *part) int64 {
	return satMul(ev.rowsUB(lp), ev.rowsUB(rp))
}

// possibleEst predicts possible(e): the support sweep tabulates each
// template part's origin space (tabulated parts contribute their rows
// directly, no sweep), and the result is a single certain part bounded
// by the operand's total row bound.
func (ev *evaluator) possibleEst(in *dRel) PlanStats {
	s := PlanStats{Parts: 1, Rows: ev.rowsBound(in)}
	for i := range in.parts {
		p := &in.parts[i]
		if p.tmpl != nil {
			s.sweep(ev.originsProduct(p.origins))
		}
	}
	return s
}

// certainEst predicts certain(e) by the group sweep certainRows runs:
// parts group by shared origins exactly as assemble groups them, and
// each group sweeps its merged origin product (the template fast path
// and the sweep's early stop only make the actual smaller).
func (ev *evaluator) certainEst(in *dRel) PlanStats {
	_, merged := originGroups(len(in.parts), func(i int) []int { return in.parts[i].origins })
	s := ev.spaceEst(merged)
	s.Parts, s.Units, s.Rows = 1, 0, ev.rowsBound(in)
	return s
}

// choiceEst predicts choiceof(e) once the support size is known: the
// support sweep's share plus one tabulation over the operand's joint
// origin space times the synthetic unit's |support| alternatives — the
// exact space choiceRel sweeps, one row at most per joint choice.
func (ev *evaluator) choiceEst(in *dRel, nSupport int) PlanStats {
	s := ev.possibleEst(in)
	if nSupport == 0 {
		return s
	}
	origins := in.origins()
	prod := satMul(ev.originsProduct(origins), int64(nSupport))
	s.sweep(prod)
	s.Units = int64(len(origins)) + 1
	s.Rows = prod
	return s
}

// diffEst predicts l ∖ r: every left part re-tabulates over its origins
// merged with all right-side origins, so MergeSpace is the exact sum of
// those products, and each left part's row bound multiplies by the
// subtrahend axes it did not already depend on (its value is repeated
// across them).
func (ev *evaluator) diffEst(l, r *dRel) PlanStats {
	if len(l.parts) == 0 || len(r.parts) == 0 {
		return ev.drelStats(l)
	}
	rOrigins := r.origins()
	s := PlanStats{Parts: int64(len(l.parts))}
	var units []int
	for li := range l.parts {
		lp := &l.parts[li]
		origins := mergeOrigins(append([]int(nil), lp.origins...), rOrigins)
		units = mergeOrigins(units, origins)
		s.sweep(ev.originsProduct(origins))
		s.Rows = satAdd(s.Rows, ev.diffRowsUB(lp, rOrigins))
	}
	s.Units = int64(len(units))
	return s
}

// diffRowsUB bounds the rows one left part of l ∖ r tabulates: its own
// bound repeated across the subtrahend axes it did not already depend
// on.
func (ev *evaluator) diffRowsUB(lp *part, rOrigins []int) int64 {
	var extra []int
	for _, o := range rOrigins {
		if _, found := slices.BinarySearch(lp.origins, o); !found {
			extra = append(extra, o)
		}
	}
	return satMul(ev.rowsUB(lp), ev.originsProduct(extra))
}

// estimating reports whether operators should compute their estimates:
// when explaining, and always in the bound reading.
func (ev *evaluator) estimating() bool { return ev.cur != nil || ev.bound }

// setEst records a node estimate on the current plan node and charges
// its merge space to the walk's predicted cost. The planner's cost of a
// form is therefore the sum of its nodes' Est.MergeSpace, plus Est.Rows
// on joins (see join), plus the assembly's estimate.
func (ev *evaluator) setEst(s PlanStats) {
	if ev.cur != nil {
		ev.cur.Est = s
	}
	ev.predicted = satAdd(ev.predicted, s.MergeSpace)
}

// actRows counts the rows actually tabulated across a decomposed
// relation's parts (template parts hold no tabulated rows).
func actRows(d *dRel) int64 {
	var n int64
	for i := range d.parts {
		if d.parts[i].tmpl != nil {
			continue
		}
		for _, alt := range d.parts[i].alts {
			n = satAdd(n, int64(len(alt)))
		}
	}
	return n
}

// statsLine renders one PlanStats side as "k=v ..." with zero fields
// omitted; empty string when nothing is set.
func statsLine(s PlanStats, withDur bool) string {
	var b strings.Builder
	add := func(k string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, v)
	}
	add("parts", s.Parts)
	add("units", s.Units)
	add("comps", s.Comps)
	add("merge", s.MergeSpace)
	add("max", s.MaxSpace)
	add("rows", s.Rows)
	if withDur {
		add("us", s.DurUS)
	}
	return b.String()
}

// WriteText renders the plan as an indented tree — the pwq explain
// shape. Estimates and actuals print side by side per node; an
// error-marked node carries a trailing "!class".
func (p *Plan) WriteText(w io.Writer) {
	fmt.Fprintf(w, "plan %s  components=%d", p.Query, p.Components)
	if p.WorldCount != "" {
		fmt.Fprintf(w, "  worlds=%s", p.WorldCount)
	}
	if p.Error != "" {
		fmt.Fprintf(w, "  !%s", p.Error)
	}
	fmt.Fprintf(w, "  %dus\n", p.DurUS)
	if pi := p.Planner; pi != nil {
		fmt.Fprintf(w, "  planner  est_cost=%d naive_cost=%d", pi.ChosenCost, pi.NaiveCost)
		if pi.Changed() {
			fmt.Fprintf(w, "\n    chosen %s\n    naive  %s\n", pi.Chosen, pi.Naive)
		} else {
			io.WriteString(w, "  (kept written form)\n")
		}
	}
	for _, o := range p.Outs {
		writePlanNode(w, o, 1)
	}
	if p.Assemble != nil {
		writePlanNode(w, p.Assemble, 1)
	}
	if p.Normalize != nil {
		fmt.Fprintf(w, "  normalize  merged=%d splits=%d folds=%d  %dus\n",
			p.Normalize.ComponentsMerged, p.Normalize.VerticalSplits,
			p.Normalize.CertainFolds, p.Normalize.DurUS)
	}
	if r := p.Readout; r != nil {
		fmt.Fprintf(w, "  readout  possible=%d certain=%d  %dus\n", r.Possible, r.Certain, r.DurUS)
	}
	if len(p.Cost) > 0 {
		names := make([]string, 0, len(p.Cost))
		for n := range p.Cost {
			names = append(names, n)
		}
		sort.Strings(names)
		io.WriteString(w, "cost:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, p.Cost[n])
		}
		io.WriteString(w, "\n")
	}
}

func writePlanNode(w io.Writer, n *PlanNode, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	io.WriteString(w, n.Op)
	if n.Detail != "" {
		fmt.Fprintf(w, " %s", n.Detail)
	}
	if s := statsLine(n.Est, false); s != "" {
		fmt.Fprintf(w, "  est[%s]", s)
	}
	if s := statsLine(n.Act, true); s != "" {
		fmt.Fprintf(w, "  act[%s]", s)
	}
	if n.Error != "" {
		fmt.Fprintf(w, "  !%s", n.Error)
	}
	io.WriteString(w, "\n")
	for _, c := range n.Children {
		writePlanNode(w, c, depth+1)
	}
}
