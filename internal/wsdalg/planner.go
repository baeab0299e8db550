// Cost-based planning for decomposition queries. The planner rewrites a
// query's algebra into an equivalent form whose predicted tabulation
// cost — the same origin-space products the EXPLAIN estimates report —
// is no larger than the naive form's:
//
//   - σ-pushdown: selection conjuncts split and sink below ⋈ (to the
//     side holding their columns), ∪ (both sides), ∖ (left side), ρ
//     (inverse-mapped), π, and the world-set collapses possible/certain
//     (a filter commutes with union and intersection alike). Applied to
//     a tabulated part, a sunk σ empties alternatives early and drops
//     all-empty parts before any join multiplies them. A σ that lands
//     on a constant relation folds away entirely — the literal rows are
//     filtered at plan time;
//   - column pruning: a π above a ⋈ pushes into both sides, keeping
//     only the needed and joined columns. On attribute-level templates
//     this is the tuple- vs slot-granular choice: a narrowed scan
//     depends on exactly the referenced slots' units, shrinking every
//     downstream origin product. ∖, certain and choiceof are
//     column-sensitive and block pruning (their operands keep their
//     full schema);
//   - join reordering: nested natural joins flatten into a list and the
//     cheapest left-deep order (exhaustive up to 5 relations, greedy
//     beyond) replaces the written one, with a π restoring the original
//     column order. The written order is always a candidate, so the
//     chosen plan's predicted cost never exceeds the naive plan's.
//
// Cost prediction is the evaluator's own walk in its bound reading: the
// same operators propagate the same parts — symbolic template narrowing
// included — but carry only origin sets and row bounds, never sweeping
// a joint space. Each operator records its plan.go estimate as it goes,
// and a form's cost is the sum of those estimates: every node's merge
// space, plus each join's pairwise row-match work (the term σ-pushdown
// shrinks), plus the final assembly's. So what the planner minimizes is
// what EXPLAIN shows, by construction. One evaluator serves a query's
// pricing walks and its evaluation, sharing one scan cache and the
// choice units it numbered. All rewrites are
// equivalences of the world-set algebra; results are bit-identical to
// the naive form (the differential suite races both).
package wsdalg

import (
	"fmt"
	"slices"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/query"
	"pw/internal/wsd"
)

// PlannerInfo records a planning decision: the naive and chosen forms
// (one "Name = expr" clause per output) and their predicted costs in
// joint alternatives tabulated.
type PlannerInfo struct {
	Chosen     string `json:"chosen"`
	Naive      string `json:"naive"`
	ChosenCost int64  `json:"chosen_cost"`
	NaiveCost  int64  `json:"naive_cost"`
}

// Changed reports whether planning picked a different form than the one
// written.
func (pi *PlannerInfo) Changed() bool { return pi != nil && pi.Chosen != pi.Naive }

// Optimize plans q against w: the rewritten query (or q itself when the
// rewrite does not lower the predicted cost, q is not algebra, or the
// cost model cannot price it) plus the decision record (nil when q was
// not priced). The returned query is always equivalent to q on every
// world set.
func Optimize(w *wsd.WSD, q query.Query) (query.Query, *PlannerInfo) {
	d := newEvaluator(w).decide(q)
	return d.form, d.planner()
}

// Decision is a planning decision kept for reuse: the form chosen for
// one query on one version of a decomposition, with its record. It
// holds the query form, never the decomposition, so keeping one does not
// keep a version alive. The form is equivalent to the query on every
// world set, so evaluating it on another version gives the same answers;
// pricing is a pure function of the query and the decomposition, so
// re-planning on the version it was made on would choose the same form.
type Decision struct {
	form   query.Query
	info   PlannerInfo
	priced bool // info is set: the planner priced the query
}

// Written is the decision to evaluate q as written, without pricing it.
func Written(q query.Query) *Decision { return &Decision{form: q} }

// planner returns the decision's planning record, nil when q was not
// priced.
func (d *Decision) planner() *PlannerInfo {
	if !d.priced {
		return nil
	}
	return &d.info
}

// decide prices q and its rewrite and keeps the cheaper form.
func (ev *evaluator) decide(q query.Query) *Decision {
	d := &Decision{form: q}
	a, ok := q.(query.Algebra)
	if !ok || ev.w.Empty() {
		return d
	}
	naiveCost, err := ev.price(a)
	if err != nil {
		return d // un-priceable: schema errors surface at eval time
	}
	outs := make([]query.Out, len(a.Outs))
	for i, o := range a.Outs {
		e := pushSelections(o.Expr)
		e = foldConstRels(e)
		if cols, serr := o.Expr.Schema(); serr == nil {
			e = pruneExpr(e, cols)
		}
		e = reorderJoins(ev, e)
		outs[i] = query.Out{Name: o.Name, Expr: e}
	}
	opt := query.Algebra{Name: a.Name, Outs: outs}
	d.priced = true
	d.info = PlannerInfo{Naive: formatOuts(a.Outs), NaiveCost: naiveCost}
	chosen := formatOuts(outs)
	if chosen == d.info.Naive {
		// The rewrite is the written form: pricing it again would
		// return the naive cost.
		d.form, d.info.Chosen, d.info.ChosenCost = opt, chosen, naiveCost
		return d
	}
	chosenCost, err := ev.price(opt)
	if err != nil || chosenCost > naiveCost {
		// Never adopt a rewrite the model prices higher than what was
		// written (or cannot price at all).
		d.info.Chosen, d.info.ChosenCost = d.info.Naive, naiveCost
		return d
	}
	d.form, d.info.Chosen, d.info.ChosenCost = opt, chosen, chosenCost
	return d
}

func formatOuts(outs []query.Out) string {
	s := ""
	for i, o := range outs {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s = %s", o.Name, o.Expr)
	}
	return s
}

// ---- σ-pushdown ----

// pushSelections sinks selection conjuncts as deep as the algebra's
// equivalences allow, recursing through every operator.
func pushSelections(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Select:
		child := pushSelections(n.E)
		var kept []algebra.Pred
		for _, p := range n.Preds {
			if c, ok := pushPred(child, p); ok {
				child = c
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return child
		}
		return algebra.Select{E: child, Preds: kept}
	}
	return algebra.Map(e, pushSelections)
}

// pushPred sinks one predicate into e where an equivalence allows it,
// returning the rewritten expression. Not-ok means the predicate stays
// where it was written.
func pushPred(e algebra.Expr, p algebra.Pred) (algebra.Expr, bool) {
	switch n := e.(type) {
	case algebra.Select:
		// σ_p σ_q E = σ_q σ_p E: try below first, merge otherwise.
		if c, ok := pushPred(n.E, p); ok {
			return algebra.Select{E: c, Preds: n.Preds}, true
		}
		preds := append(append([]algebra.Pred(nil), n.Preds...), p)
		return algebra.Select{E: n.E, Preds: preds}, true
	case algebra.Project:
		// π keeps every column σ can reference.
		return algebra.Project{E: pushOrWrap(n.E, p), Cols: n.Cols}, true
	case algebra.Rename:
		child, err := n.E.Schema()
		if err != nil {
			return nil, false
		}
		mapped, ok := renamePred(p, n.From, n.To, child)
		if !ok {
			return nil, false
		}
		return algebra.Rename{E: pushOrWrap(n.E, mapped), From: n.From, To: n.To}, true
	case algebra.Join:
		lCols, lerr := n.L.Schema()
		rCols, rerr := n.R.Schema()
		if lerr != nil || rerr != nil {
			return nil, false
		}
		cols := predColumns(p)
		l, r := n.L, n.R
		ok := false
		if colsSubset(cols, lCols) {
			l, ok = pushOrWrap(l, p), true
		}
		if colsSubset(cols, rCols) {
			r, ok = pushOrWrap(r, p), true
		}
		if !ok {
			return nil, false
		}
		return algebra.Join{L: l, R: r}, true
	case algebra.Union:
		// σ distributes over ∪.
		return algebra.Union{L: pushOrWrap(n.L, p), R: pushOrWrap(n.R, p)}, true
	case algebra.Diff:
		// σ(L ∖ R) = σ(L) ∖ R.
		return algebra.Diff{L: pushOrWrap(n.L, p), R: n.R}, true
	case algebra.Possible:
		// A filter commutes with the union over worlds.
		return algebra.Possible{E: pushOrWrap(n.E, p)}, true
	case algebra.Certain:
		// … and with the intersection over worlds.
		return algebra.Certain{E: pushOrWrap(n.E, p)}, true
	}
	// ChoiceOf is a barrier: filtering a pick differs from picking from
	// the filtered set. Scans and constants have nothing below them.
	return nil, false
}

func pushOrWrap(e algebra.Expr, p algebra.Pred) algebra.Expr {
	if c, ok := pushPred(e, p); ok {
		return c
	}
	return algebra.Select{E: e, Preds: []algebra.Pred{p}}
}

// ---- constant folding ----

// foldConstRels evaluates selections over constant relations at plan
// time: every predicate over literal rows is decidable, so the σ folds
// into a smaller ConstRel — typically one σ-pushdown landed on the
// dimension side of a join, where every dropped row shrinks the join's
// row-match work for real (the fold is exact, not an estimate).
func foldConstRels(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Select:
		child := foldConstRels(n.E)
		if c, ok := child.(algebra.ConstRel); ok {
			if folded, ok := foldSelect(c, n.Preds); ok {
				return folded
			}
		}
		return algebra.Select{E: child, Preds: n.Preds}
	}
	return algebra.Map(e, foldConstRels)
}

// foldSelect filters a constant relation's rows through literal
// predicates. Not-ok (fold refused, σ stays) when a column reference
// does not resolve — that is a schema error whose report belongs to
// evaluation, not planning.
func foldSelect(c algebra.ConstRel, preds []algebra.Pred) (algebra.Expr, bool) {
	resolve := func(o algebra.Operand, row []string) (string, bool) {
		if k, isConst := o.Const(); isConst {
			return k, true
		}
		col, _ := o.Column()
		i := slices.Index(c.Cols, col)
		if i < 0 {
			return "", false
		}
		return row[i], true
	}
	rows := [][]string{}
	for _, row := range c.Rows {
		keep := true
		for _, p := range preds {
			l, lok := resolve(p.L, row)
			r, rok := resolve(p.R, row)
			if !lok || !rok {
				return nil, false
			}
			if (p.Op == cond.Eq) != (l == r) {
				keep = false
				break
			}
		}
		if keep {
			rows = append(rows, row)
		}
	}
	return algebra.ConstRel{Cols: c.Cols, Rows: rows}, true
}

// renamePred maps a predicate's column references through the inverse
// of a rename (To → From); not-ok when a reference cannot be resolved
// in the child schema.
func renamePred(p algebra.Pred, from, to []string, child []string) (algebra.Pred, bool) {
	mapOperand := func(o algebra.Operand) (algebra.Operand, bool) {
		col, isCol := o.Column()
		if !isCol {
			return o, true
		}
		for i, t := range to {
			if t == col {
				col = from[i]
				break
			}
		}
		if slices.Index(child, col) < 0 {
			return o, false
		}
		return algebra.Col(col), true
	}
	l, ok := mapOperand(p.L)
	if !ok {
		return p, false
	}
	r, ok := mapOperand(p.R)
	if !ok {
		return p, false
	}
	return algebra.Pred{Op: p.Op, L: l, R: r}, true
}

func predColumns(p algebra.Pred) []string {
	var cols []string
	for _, o := range []algebra.Operand{p.L, p.R} {
		if c, ok := o.Column(); ok {
			cols = append(cols, c)
		}
	}
	return cols
}

func colsSubset(cols, in []string) bool {
	for _, c := range cols {
		if slices.Index(in, c) < 0 {
			return false
		}
	}
	return true
}

// ---- column pruning ----

// pruneExpr rewrites e to an equivalent expression with schema exactly
// needed (an ordered subset of e's schema), pushing projections down to
// base scans. On attribute-level templates the narrowed scan depends on
// exactly the referenced slots' units — the slot-granular path — which
// shrinks every origin product above it. Diff, certain and choiceof are
// column-sensitive: their operands keep their full schema and a π on
// top does the narrowing.
func pruneExpr(e algebra.Expr, needed []string) algebra.Expr {
	full, err := e.Schema()
	if err != nil {
		return e
	}
	switch n := e.(type) {
	case algebra.Project:
		return pruneExpr(n.E, needed)
	case algebra.Select:
		child, err := n.E.Schema()
		if err != nil {
			return wrapProject(e, needed, full)
		}
		needPlus := needed
		for _, p := range n.Preds {
			needPlus = addCols(needPlus, predColumns(p))
		}
		needPlus = orderCols(child, needPlus)
		out := algebra.Expr(algebra.Select{E: pruneExpr(n.E, needPlus), Preds: n.Preds})
		return wrapProject(out, needed, needPlus)
	case algebra.Rename:
		child, err := n.E.Schema()
		if err != nil {
			return wrapProject(e, needed, full)
		}
		childNeeded := make([]string, 0, len(needed))
		for _, c := range needed {
			for i, t := range n.To {
				if t == c {
					c = n.From[i]
					break
				}
			}
			childNeeded = append(childNeeded, c)
		}
		childNeeded = orderCols(child, childNeeded)
		var from, to []string
		for i, f := range n.From {
			if slices.Index(childNeeded, f) >= 0 {
				from = append(from, f)
				to = append(to, n.To[i])
			}
		}
		out := algebra.Expr(pruneExpr(n.E, childNeeded))
		if len(from) > 0 {
			out = algebra.Rename{E: out, From: from, To: to}
		}
		have := make([]string, len(childNeeded))
		copy(have, childNeeded)
		for i, c := range have {
			if j := slices.Index(from, c); j >= 0 {
				have[i] = to[j]
			}
		}
		return wrapProject(out, needed, have)
	case algebra.Join:
		lCols, lerr := n.L.Schema()
		rCols, rerr := n.R.Schema()
		if lerr != nil || rerr != nil {
			return wrapProject(e, needed, full)
		}
		var shared []string
		for _, c := range rCols {
			if slices.Index(lCols, c) >= 0 {
				shared = append(shared, c)
			}
		}
		keep := addCols(append([]string(nil), needed...), shared)
		needL := orderCols(lCols, keep)
		needR := orderCols(rCols, keep)
		out := algebra.Expr(algebra.Join{L: pruneExpr(n.L, needL), R: pruneExpr(n.R, needR)})
		have := append([]string(nil), needL...)
		for _, c := range needR {
			if slices.Index(needL, c) < 0 {
				have = append(have, c)
			}
		}
		return wrapProject(out, needed, have)
	case algebra.Union:
		return algebra.Union{L: pruneExpr(n.L, needed), R: pruneExpr(n.R, needed)}
	case algebra.Diff:
		out := algebra.Expr(algebra.Diff{L: pruneSame(n.L), R: pruneSame(n.R)})
		return wrapProject(out, needed, full)
	case algebra.Possible:
		// π commutes with the union over worlds.
		return algebra.Possible{E: pruneExpr(n.E, needed)}
	case algebra.Certain, algebra.ChoiceOf:
		var out algebra.Expr
		if c, ok := n.(algebra.Certain); ok {
			out = algebra.Certain{E: pruneSame(c.E)}
		} else {
			out = algebra.ChoiceOf{E: pruneSame(n.(algebra.ChoiceOf).E)}
		}
		return wrapProject(out, needed, full)
	}
	// Scans and constants: the narrowing π lands here (symbolic on
	// templates, tuple-local on alternatives).
	return wrapProject(e, needed, full)
}

// pruneSame recurses into a column-sensitive operand, keeping its own
// schema intact.
func pruneSame(e algebra.Expr) algebra.Expr {
	cols, err := e.Schema()
	if err != nil {
		return e
	}
	return pruneExpr(e, cols)
}

func wrapProject(e algebra.Expr, needed, have []string) algebra.Expr {
	if slices.Equal(needed, have) {
		return e
	}
	return algebra.Project{E: e, Cols: needed}
}

func addCols(dst []string, src []string) []string {
	for _, c := range src {
		if slices.Index(dst, c) < 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// orderCols filters schema down to the named set, preserving schema
// order — the canonical form recursion hands down.
func orderCols(schema []string, set []string) []string {
	out := make([]string, 0, len(set))
	for _, c := range schema {
		if slices.Index(set, c) >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// ---- join reordering ----

// reorderJoins rewrites every maximal nested natural-join chain into
// its cheapest left-deep order under the bound reading's cost, wrapping
// a π to restore the written column order. The written order competes,
// so the result is never predicted costlier.
func reorderJoins(ev *evaluator, e algebra.Expr) algebra.Expr {
	if _, ok := e.(algebra.Join); ok {
		leaves := flattenJoin(e)
		for i := range leaves {
			leaves[i] = reorderJoins(ev, leaves[i])
		}
		return bestJoinOrder(ev, e, leaves)
	}
	return algebra.Map(e, func(c algebra.Expr) algebra.Expr { return reorderJoins(ev, c) })
}

// flattenJoin collects the leaves of a maximal nested-join tree in
// written order (natural join is associative and commutative up to
// column order).
func flattenJoin(e algebra.Expr) []algebra.Expr {
	if j, ok := e.(algebra.Join); ok {
		return append(flattenJoin(j.L), flattenJoin(j.R)...)
	}
	return []algebra.Expr{e}
}

func rebuildJoin(leaves []algebra.Expr, order []int) algebra.Expr {
	out := leaves[order[0]]
	for _, i := range order[1:] {
		out = algebra.Join{L: out, R: leaves[i]}
	}
	return out
}

// bestJoinOrder prices every candidate left-deep order of the chain —
// all permutations up to 5 leaves, greedy-cheapest beyond — against the
// written order and returns the winner (strictly cheaper only), with a
// π restoring the written column order. The leaves are walked once in
// the bound reading; a candidate's cost is that of its join steps.
func bestJoinOrder(ev *evaluator, orig algebra.Expr, leaves []algebra.Expr) algebra.Expr {
	written := firstN(len(leaves))
	if len(leaves) < 3 {
		return rebuildJoin(leaves, written)
	}
	origCols, err := orig.Schema()
	if err != nil {
		return rebuildJoin(leaves, written)
	}
	ev.begin(true, nil, nil)
	rels := make([]dRel, len(leaves))
	for i, l := range leaves {
		d, err := ev.eval(l)
		if err != nil {
			return rebuildJoin(leaves, written)
		}
		rels[i] = d
	}
	chainCost := func(order []int) int64 {
		ev.predicted = 0
		acc := rels[order[0]]
		for _, i := range order[1:] {
			cols := addCols(append([]string(nil), acc.cols...), rels[i].cols)
			acc, _ = ev.join(acc, rels[i], cols) // the bound reading cannot fail
		}
		return ev.predicted
	}
	best := append([]int(nil), written...)
	bestCost := chainCost(written)
	consider := func(order []int) {
		if c := chainCost(order); c < bestCost {
			bestCost = c
			copy(best, order)
		}
	}
	if len(leaves) <= 5 {
		permute(written, consider)
	} else {
		consider(greedyOrder(len(leaves), chainCost))
	}
	out := rebuildJoin(leaves, best)
	cols, err := out.Schema()
	if err != nil || slices.Equal(cols, origCols) {
		return out
	}
	return algebra.Project{E: out, Cols: origCols}
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// permute enumerates permutations of ord in deterministic order,
// calling fn with each (fn must copy if it keeps the slice).
func permute(ord []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ord) {
			fn(ord)
			return
		}
		for i := k; i < len(ord); i++ {
			ord[k], ord[i] = ord[i], ord[k]
			rec(k + 1)
			ord[k], ord[i] = ord[i], ord[k]
		}
	}
	rec(0)
}

// greedyOrder builds one order by repeatedly appending the leaf that
// keeps the running chain cheapest (first index wins ties).
func greedyOrder(n int, cost func([]int) int64) []int {
	remaining := firstN(n)
	var order []int
	for len(remaining) > 0 {
		bestI, bestC := 0, int64(-1)
		for i := range remaining {
			cand := append(append([]int(nil), order...), remaining[i])
			c := cost(cand)
			if bestC < 0 || c < bestC {
				bestI, bestC = i, c
			}
		}
		order = append(order, remaining[bestI])
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	return order
}
