// Package algebra implements the positive existential queries of §2.1:
// relational expressions over project, natural join, union, renaming and
// positive select (plus, as an extension used by Theorems 3.2(4) and
// 5.2(2), selections with ≠), with difference and the world-set operators
// of worldset.go. Expressions evaluate two ways:
//
//   - WorldSetEval: evaluation on explicit worlds, world by world. A
//     complete-information instance is the world set of one world
//     (EvalToRelation), evaluated with PTIME data-complexity;
//   - EvalToTable: the lifted evaluation on conditioned tables following
//     Imielinski–Lipski [10], which rewrites a c-table database into a
//     c-table representing the query's view. This is the "algebraic
//     completeness of conditioned-tables" that Theorem 5.2(1) builds on:
//     rep(EvalToTable(q, T)) = q(rep(T)), with only polynomial growth.
//
// Columns are named; base relations assign names positionally via Rel.
package algebra

import (
	"fmt"
	"strings"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// Operand is a column reference or a constant in a selection predicate.
type Operand struct {
	col     string
	k       string
	isConst bool
}

// Col references the named column.
func Col(name string) Operand { return Operand{col: name} }

// Lit references a constant.
func Lit(c string) Operand { return Operand{k: c, isConst: true} }

// Const returns the constant and true when the operand is a constant
// literal.
func (o Operand) Const() (string, bool) { return o.k, o.isConst }

// Column returns the column name and true when the operand is a column
// reference.
func (o Operand) Column() (string, bool) { return o.col, !o.isConst }

// String renders the operand.
func (o Operand) String() string {
	if o.isConst {
		return o.k
	}
	return "#" + o.col
}

// Pred is a selection predicate comparing two operands.
type Pred struct {
	Op   cond.Op
	L, R Operand
}

// EqP builds an equality predicate, NeqP an inequality one.
func EqP(l, r Operand) Pred  { return Pred{Op: cond.Eq, L: l, R: r} }
func NeqP(l, r Operand) Pred { return Pred{Op: cond.Neq, L: l, R: r} }

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

// Expr is a relational algebra expression.
type Expr interface {
	// Schema returns the output column names; column names within one
	// schema are unique.
	Schema() ([]string, error)
	// String renders the expression.
	String() string
}

// Rel is a base relation scan assigning column names positionally.
type Rel struct {
	Name string
	Cols []string
}

// Scan builds a base-relation scan.
func Scan(name string, cols ...string) Rel { return Rel{Name: name, Cols: cols} }

func (r Rel) Schema() ([]string, error) {
	if err := uniqueCols(r.Cols); err != nil {
		return nil, fmt.Errorf("scan %s: %w", r.Name, err)
	}
	return r.Cols, nil
}
func (r Rel) String() string { return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Cols, ",")) }

// Project keeps the named columns, in the given order.
type Project struct {
	E    Expr
	Cols []string
}

func (p Project) Schema() ([]string, error) {
	in, err := p.E.Schema()
	if err != nil {
		return nil, err
	}
	for _, c := range p.Cols {
		if indexOf(in, c) < 0 {
			return nil, fmt.Errorf("project: column %s not in %v", c, in)
		}
	}
	if err := uniqueCols(p.Cols); err != nil {
		return nil, err
	}
	return p.Cols, nil
}
func (p Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.E)
}

// Select filters by a conjunction of predicates.
type Select struct {
	E     Expr
	Preds []Pred
}

// Where is a convenience constructor.
func Where(e Expr, preds ...Pred) Select { return Select{E: e, Preds: preds} }

func (s Select) Schema() ([]string, error) {
	in, err := s.E.Schema()
	if err != nil {
		return nil, err
	}
	for _, p := range s.Preds {
		for _, o := range []Operand{p.L, p.R} {
			if !o.isConst && indexOf(in, o.col) < 0 {
				return nil, fmt.Errorf("select: column %s not in %v", o.col, in)
			}
		}
	}
	return in, nil
}
func (s Select) String() string {
	parts := make([]string, len(s.Preds))
	for i, p := range s.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(parts, " and "), s.E)
}

// Rename renames columns according to the mapping From[i] → To[i].
type Rename struct {
	E        Expr
	From, To []string
}

func (r Rename) Schema() ([]string, error) {
	in, err := r.E.Schema()
	if err != nil {
		return nil, err
	}
	if len(r.From) != len(r.To) {
		return nil, fmt.Errorf("rename: %d from-columns vs %d to-columns", len(r.From), len(r.To))
	}
	out := append([]string(nil), in...)
	for i, f := range r.From {
		j := indexOf(in, f)
		if j < 0 {
			return nil, fmt.Errorf("rename: column %s not in %v", f, in)
		}
		out[j] = r.To[i]
	}
	if err := uniqueCols(out); err != nil {
		return nil, err
	}
	return out, nil
}
func (r Rename) String() string {
	pairs := make([]string, len(r.From))
	for i := range r.From {
		pairs[i] = r.From[i] + "→" + r.To[i]
	}
	return fmt.Sprintf("ρ[%s](%s)", strings.Join(pairs, ","), r.E)
}

// Join is the natural join on shared column names (cartesian product when
// the operands share no columns).
type Join struct {
	L, R Expr
}

func (j Join) Schema() ([]string, error) {
	ls, err := j.L.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := j.R.Schema()
	if err != nil {
		return nil, err
	}
	out := append([]string(nil), ls...)
	for _, c := range rs {
		if indexOf(ls, c) < 0 {
			out = append(out, c)
		}
	}
	return out, nil
}
func (j Join) String() string { return fmt.Sprintf("(%s ⋈ %s)", j.L, j.R) }

// Union is set union; the operands must have identical schemas.
type Union struct {
	L, R Expr
}

func (u Union) Schema() ([]string, error) {
	ls, err := u.L.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := u.R.Schema()
	if err != nil {
		return nil, err
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("union: schemas %v and %v differ in arity", ls, rs)
	}
	for i := range ls {
		if ls[i] != rs[i] {
			return nil, fmt.Errorf("union: schemas %v and %v differ; rename first", ls, rs)
		}
	}
	return ls, nil
}
func (u Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// UnionAll folds a list of expressions into nested unions; it panics on an
// empty list.
func UnionAll(es ...Expr) Expr {
	if len(es) == 0 {
		panic("algebra: UnionAll of nothing")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Union{L: out, R: e}
	}
	return out
}

// JoinAll folds a list of expressions into nested natural joins.
func JoinAll(es ...Expr) Expr {
	if len(es) == 0 {
		panic("algebra: JoinAll of nothing")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Join{L: out, R: e}
	}
	return out
}

// ConstRel is a literal constant relation (the VALUES of SQL). The paper's
// reduction queries use disjuncts like "… ∨ x = 0" to emit marker
// constants; with active-domain FO semantics those markers are always in
// the domain because the query mentions them, and ConstRel reproduces that
// behaviour algebraically.
type ConstRel struct {
	Cols []string
	Rows [][]string
}

// Values builds a one-column constant relation.
func Values(col string, consts ...string) ConstRel {
	rows := make([][]string, len(consts))
	for i, c := range consts {
		rows[i] = []string{c}
	}
	return ConstRel{Cols: []string{col}, Rows: rows}
}

func (c ConstRel) Schema() ([]string, error) {
	if err := uniqueCols(c.Cols); err != nil {
		return nil, err
	}
	for _, r := range c.Rows {
		if len(r) != len(c.Cols) {
			return nil, fmt.Errorf("constrel: row %v has arity %d, want %d", r, len(r), len(c.Cols))
		}
	}
	return c.Cols, nil
}
func (c ConstRel) String() string {
	return fmt.Sprintf("values(%s)×%d", strings.Join(c.Cols, ","), len(c.Rows))
}

func indexOf(cols []string, c string) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

func uniqueCols(cols []string) error {
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("algebra: duplicate column %s", c)
		}
		seen[c] = true
	}
	return nil
}

// ensure interface satisfaction (compile-time checks).
var (
	_ Expr = Rel{}
	_ Expr = Project{}
	_ Expr = Select{}
	_ Expr = Rename{}
	_ Expr = Join{}
	_ Expr = Union{}
	_ Expr = ConstRel{}
)

// EvalToRelation evaluates e on a complete-information instance and
// returns the result as a relation named name, in interned form end to
// end. It is WorldSetEval on the one-world set {inst}, where an
// expression has exactly one branch. That world set is not the set of
// worlds a database represents, so possible, certain and choiceof are
// refused (ErrWorldSetOp) before anything is evaluated.
func EvalToRelation(e Expr, inst *rel.Instance, name string) (*rel.Relation, error) {
	if op := worldSetOp(e); op != nil {
		return nil, fmt.Errorf("%w: %s", ErrWorldSetOp, op)
	}
	bs, err := NewWorldSetEval([]*rel.Instance{inst}).branches(e, 0)
	if err != nil {
		return nil, err
	}
	r := bs[0].rows
	r.Name = name
	return r, nil
}

// Row-level kernels of the world-set evaluator (worldset.go), one branch
// at a time. Callers have already checked the schema, so column lookups
// cannot fail. Each returns a new relation; Insert copies a tuple only
// when it is new, so the kernels build candidates in one reused buffer.

func projectRows(in branch, cols []string) branch {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = indexOf(in.cols, c)
	}
	out := newBranch(cols)
	g := make(sym.Tuple, len(idx))
	for _, f := range in.rows.Tuples() {
		for i, j := range idx {
			g[i] = f[j]
		}
		out.rows.Insert(g)
	}
	return out
}

func selectRows(in branch, npreds []Pred) branch {
	// Resolve predicate operands once: a column index or an interned
	// constant, so the row loop is pure ID comparison.
	type resolved struct {
		op           cond.Op
		lIdx, rIdx   int
		lConst, rCon sym.ID
	}
	preds := make([]resolved, len(npreds))
	for i, p := range npreds {
		preds[i] = resolved{op: p.Op, lIdx: -1, rIdx: -1}
		if p.L.isConst {
			preds[i].lConst = sym.Const(p.L.k)
		} else {
			preds[i].lIdx = indexOf(in.cols, p.L.col)
		}
		if p.R.isConst {
			preds[i].rCon = sym.Const(p.R.k)
		} else {
			preds[i].rIdx = indexOf(in.cols, p.R.col)
		}
	}
	out := newBranch(in.cols)
	for _, f := range in.rows.Tuples() {
		ok := true
		for _, p := range preds {
			l, r := p.lConst, p.rCon
			if p.lIdx >= 0 {
				l = f[p.lIdx]
			}
			if p.rIdx >= 0 {
				r = f[p.rIdx]
			}
			if (p.op == cond.Eq) != (l == r) {
				ok = false
				break
			}
		}
		if ok {
			out.rows.Insert(f)
		}
	}
	return out
}

func joinRows(l, r branch, cols []string) branch {
	// Positions of shared columns.
	var lShared, rShared []int
	var rExtra []int
	for j, c := range r.cols {
		if i := indexOf(l.cols, c); i >= 0 {
			lShared = append(lShared, i)
			rShared = append(rShared, j)
		} else {
			rExtra = append(rExtra, j)
		}
	}
	// Hash the right side on shared-column IDs; probe hits are verified
	// component-wise (the hash is a fingerprint, not an identity).
	joinKey := func(t sym.Tuple, at []int) uint64 {
		h := uint64(1469598103934665603)
		for _, j := range at {
			h ^= uint64(t[j])
			h *= 1099511628211
		}
		return h
	}
	index := make(map[uint64][]sym.Tuple, r.rows.Len())
	for _, rf := range r.rows.Tuples() {
		k := joinKey(rf, rShared)
		index[k] = append(index[k], rf)
	}
	out := newBranch(cols)
	g := make(sym.Tuple, 0, len(cols))
	for _, lf := range l.rows.Tuples() {
	probe:
		for _, rf := range index[joinKey(lf, lShared)] {
			for k := range lShared {
				if lf[lShared[k]] != rf[rShared[k]] {
					continue probe
				}
			}
			g = append(g[:0], lf...)
			for _, j := range rExtra {
				g = append(g, rf[j])
			}
			out.rows.Insert(g)
		}
	}
	return out
}

func unionRows(l, r branch) branch {
	out := newBranch(l.cols)
	out.rows.UnionWith(l.rows)
	out.rows.UnionWith(r.rows)
	return out
}

func diffRows(l, r branch) branch {
	out := newBranch(l.cols)
	for _, f := range l.rows.Tuples() {
		if !r.rows.Contains(f) {
			out.rows.Insert(f)
		}
	}
	return out
}

func intersectRows(l, r branch) branch {
	out := newBranch(l.cols)
	for _, f := range l.rows.Tuples() {
		if r.rows.Contains(f) {
			out.rows.Insert(f)
		}
	}
	return out
}

// liftRows is the intermediate result of lifted evaluation: named columns
// over conditioned rows (values may contain variables).
type liftRows struct {
	cols []string
	rows []table.Row
}

// EvalToTable evaluates e on a conditioned-table database d, producing a
// c-table named name that represents {q(I) : I ∈ rep(d)}: it carries d's
// combined global condition, and rows whose local condition is
// unsatisfiable are pruned.
func EvalToTable(e Expr, d *table.Database, name string) (*table.Table, error) {
	lr, err := evalLift(e, d)
	if err != nil {
		return nil, err
	}
	t := table.New(name, len(lr.cols))
	t.Global = d.GlobalConjunction().Clone()
	for _, r := range lr.rows {
		t.Add(r)
	}
	return t, nil
}

func evalLift(e Expr, d *table.Database) (*liftRows, error) {
	switch n := e.(type) {
	case ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		out := &liftRows{cols: cols}
		for _, r := range n.Rows {
			vals := make(sym.Tuple, len(r))
			for i, c := range r {
				vals[i] = sym.Const(c)
			}
			out.rows = append(out.rows, table.Row{Values: vals})
		}
		return out, nil

	case Rel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		base := d.Table(n.Name)
		if base == nil {
			return nil, fmt.Errorf("algebra: table %s not in database", n.Name)
		}
		if base.Arity != len(cols) {
			return nil, fmt.Errorf("algebra: scan %s names %d columns, table has arity %d",
				n.Name, len(cols), base.Arity)
		}
		out := &liftRows{cols: cols}
		for _, r := range base.Rows {
			out.rows = append(out.rows, r.Clone())
		}
		return out, nil

	case Project:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = indexOf(in.cols, c)
		}
		out := &liftRows{cols: n.Cols}
		for _, r := range in.rows {
			vals := make(sym.Tuple, len(idx))
			for i, j := range idx {
				vals[i] = r.Values[j]
			}
			out.rows = append(out.rows, table.Row{Values: vals, Cond: r.Cond})
		}
		out.dedupe()
		return out, nil

	case Select:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		out := &liftRows{cols: in.cols}
		for _, r := range in.rows {
			c := r.Cond.Clone()
			for _, p := range n.Preds {
				l := operandLifted(p.L, in.cols, r)
				rv := operandLifted(p.R, in.cols, r)
				c = append(c, cond.Atom{Op: p.Op, L: l, R: rv})
			}
			if !c.Satisfiable() {
				continue
			}
			out.rows = append(out.rows, table.Row{Values: r.Values, Cond: c.Normalize()})
		}
		return out, nil

	case Rename:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return &liftRows{cols: cols, rows: in.rows}, nil

	case Join:
		l, err := evalLift(n.L, d)
		if err != nil {
			return nil, err
		}
		r, err := evalLift(n.R, d)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		var lShared, rShared, rExtra []int
		for j, c := range r.cols {
			if i := indexOf(l.cols, c); i >= 0 {
				lShared = append(lShared, i)
				rShared = append(rShared, j)
			} else {
				rExtra = append(rExtra, j)
			}
		}
		out := &liftRows{cols: cols}
		for _, lr := range l.rows {
			for _, rr := range r.rows {
				c := lr.Cond.And(rr.Cond)
				ok := true
				vals := make(sym.Tuple, 0, len(cols))
				vals = append(vals, lr.Values...)
				for k := range lShared {
					lv, rv := lr.Values[lShared[k]], rr.Values[rShared[k]]
					if lv == rv {
						continue
					}
					// Prefer the constant in the output position.
					if lv.IsVar() && !rv.IsVar() {
						vals[lShared[k]] = rv
					}
					c = append(c, cond.EqAtom(lv, rv))
				}
				for _, j := range rExtra {
					vals = append(vals, rr.Values[j])
				}
				if !c.Satisfiable() {
					ok = false
				}
				if ok {
					out.rows = append(out.rows, table.Row{Values: vals, Cond: c.Normalize()})
				}
			}
		}
		out.dedupe()
		return out, nil

	case Union:
		l, err := evalLift(n.L, d)
		if err != nil {
			return nil, err
		}
		r, err := evalLift(n.R, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		out := &liftRows{cols: l.cols}
		out.rows = append(out.rows, l.rows...)
		out.rows = append(out.rows, r.rows...)
		out.dedupe()
		return out, nil

	case Diff:
		// Conditioned-table lifting covers the positive existential
		// fragment (plus ≠ selections); difference needs universal
		// conditions. Decomposition-native evaluation (internal/wsdalg)
		// handles it instead.
		return nil, fmt.Errorf("algebra: %s is outside the liftable fragment", e)

	case Possible, Certain, ChoiceOf:
		// Not per-world maps at all: only a world-set backend (a
		// decomposition) can apply them.
		return nil, fmt.Errorf("%w: %s needs a decomposition backend", ErrWorldSetOp, e)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

func operandLifted(o Operand, cols []string, r table.Row) sym.ID {
	if o.isConst {
		return sym.Const(o.k)
	}
	return r.Values[indexOf(cols, o.col)]
}

// dedupe removes rows with identical values and conditions (a safe,
// purely syntactic reduction; semantic duplicates are harmless).
func (lr *liftRows) dedupe() {
	seen := make(map[string]bool, len(lr.rows))
	out := lr.rows[:0]
	for _, r := range lr.rows {
		k := r.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	lr.rows = out
}
