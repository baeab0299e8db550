// World-set algebra operators, after Koch's compositional query algebra
// for uncertain databases: possible, certain and choice-of are operators
// on *sets of worlds*, not per-world maps, so they compose with the
// ordinary relational operators instead of being terminal readouts.
//
// Semantics over a world set W (fixed here and mirrored natively by
// internal/wsdalg; the differential harness pins the two against each
// other):
//
//   - possible(e): in every world, the union of e's value across all
//     worlds of W — a certain relation.
//   - certain(e): in every world, the intersection of e's value across
//     all worlds of W — a certain relation.
//   - choiceof(e): hypothetical selection. Each world w with e(w) = {t₁,…,tₙ}
//     splits into n worlds, one per tuple tᵢ, in which the expression's
//     value is the singleton {tᵢ}; a world with e(w) = ∅ maps to the single
//     world where the value is ∅. Each syntactic choiceof occurrence is an
//     independent choice axis.
//   - diff(l, r): per-world set difference (schemas must agree, as for
//     union). diff is an ordinary per-world map and also evaluates on a
//     single instance; the three operators above do not.
//
// possible/certain collapse over the base worlds *and* the choice axes
// inside their own operand; choice axes in sibling subtrees do not affect
// the operand's value and therefore do not affect the collapse.
package algebra

import (
	"errors"
	"fmt"
	"sort"

	"pw/internal/rel"
	"pw/internal/sym"
)

// ErrWorldSetOp marks evaluation of a world-set operator in a context
// that has no world set (a single complete-information instance).
var ErrWorldSetOp = errors.New("algebra: world-set operator outside a world-set context")

// Possible is the world-set operator possible(e): the union of e's value
// over every world, available as a certain relation in every world.
type Possible struct{ E Expr }

func (p Possible) Schema() ([]string, error) { return p.E.Schema() }
func (p Possible) String() string            { return fmt.Sprintf("possible(%s)", p.E) }

// Certain is the world-set operator certain(e): the intersection of e's
// value over every world, available as a certain relation in every world.
type Certain struct{ E Expr }

func (c Certain) Schema() ([]string, error) { return c.E.Schema() }
func (c Certain) String() string            { return fmt.Sprintf("certain(%s)", c.E) }

// ChoiceOf is the hypothetical what-if operator choiceof(e): each world
// splits into one world per tuple of e's value there, with the value
// restricted to that single tuple (∅ stays ∅).
type ChoiceOf struct{ E Expr }

func (c ChoiceOf) Schema() ([]string, error) { return c.E.Schema() }
func (c ChoiceOf) String() string            { return fmt.Sprintf("choiceof(%s)", c.E) }

// Diff is per-world set difference; the operands must have identical
// schemas (as for Union).
type Diff struct{ L, R Expr }

func (d Diff) Schema() ([]string, error) {
	ls, err := d.L.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := d.R.Schema()
	if err != nil {
		return nil, err
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("diff: schemas %v and %v differ in arity", ls, rs)
	}
	for i := range ls {
		if ls[i] != rs[i] {
			return nil, fmt.Errorf("diff: schemas %v and %v differ; rename first", ls, rs)
		}
	}
	return ls, nil
}
func (d Diff) String() string { return fmt.Sprintf("(%s ∖ %s)", d.L, d.R) }

// Compile-time interface checks for the world-set nodes.
var (
	_ Expr = Possible{}
	_ Expr = Certain{}
	_ Expr = ChoiceOf{}
	_ Expr = Diff{}
)

// WorldSetEval evaluates extended expressions over an explicit world set.
// This is the oracle semantics for the world-set algebra: cost is linear
// in the number of worlds and exponential in choiceof nesting, so it
// exists for the differential harness and for small examples; real
// evaluation runs natively on decompositions in internal/wsdalg.
type WorldSetEval struct {
	worlds []*rel.Instance
	// memo caches the world-independent value of possible(e)/certain(e)
	// subexpressions, keyed by their rendering.
	memo map[string]*instRows
	// MaxBranches bounds the number of choice branches tracked for any
	// single (expression, world) pair before evaluation refuses.
	MaxBranches int
}

// NewWorldSetEval builds an evaluator over the given worlds.
func NewWorldSetEval(worlds []*rel.Instance) *WorldSetEval {
	return &WorldSetEval{worlds: worlds, memo: map[string]*instRows{}, MaxBranches: 1 << 16}
}

// Branches returns the possible values of e in world wi: the output
// columns and one sorted, deduplicated row set per joint choice of the
// choiceof axes inside e (branches with identical values are merged).
func (ev *WorldSetEval) Branches(e Expr, wi int) ([]string, [][]sym.Tuple, error) {
	irs, err := ev.branches(e, wi)
	if err != nil {
		return nil, nil, err
	}
	cols, err := e.Schema()
	if err != nil {
		return nil, nil, err
	}
	out := make([][]sym.Tuple, len(irs))
	for i, ir := range irs {
		out[i] = sortedTuples(ir)
	}
	return cols, out, nil
}

func (ev *WorldSetEval) branches(e Expr, wi int) ([]*instRows, error) {
	// Subtrees free of world-set operators are ordinary per-world maps:
	// a single branch, computed by the plain instance evaluator.
	if !HasWorldSetOps(e) {
		ir, err := evalInst(e, ev.worlds[wi])
		if err != nil {
			return nil, err
		}
		return []*instRows{ir}, nil
	}
	switch n := e.(type) {
	case Project:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		out := make([]*instRows, len(in))
		for i, b := range in {
			out[i] = projectRows(b, n.Cols)
		}
		return ev.dedupBranches(out)

	case Select:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		out := make([]*instRows, len(in))
		for i, b := range in {
			out[i] = selectRows(b, n.Preds)
		}
		return ev.dedupBranches(out)

	case Rename:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		out := make([]*instRows, len(in))
		for i, b := range in {
			out[i] = renameRows(b, cols)
		}
		return ev.dedupBranches(out)

	case Join:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return ev.crossBranches(n.L, n.R, wi, func(l, r *instRows) *instRows {
			return joinRows(l, r, cols)
		})

	case Union:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return ev.crossBranches(n.L, n.R, wi, unionRows)

	case Diff:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return ev.crossBranches(n.L, n.R, wi, diffRows)

	case Possible:
		ir, err := ev.collapse(n, n.E, true)
		if err != nil {
			return nil, err
		}
		return []*instRows{ir}, nil

	case Certain:
		ir, err := ev.collapse(n, n.E, false)
		if err != nil {
			return nil, err
		}
		return []*instRows{ir}, nil

	case ChoiceOf:
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		var out []*instRows
		for _, b := range in {
			if len(b.rows) == 0 {
				out = append(out, newInstRows(b.cols))
				continue
			}
			for _, t := range b.rows {
				ir := newInstRows(b.cols)
				ir.add(t)
				out = append(out, ir)
			}
		}
		return ev.dedupBranches(out)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

// crossBranches combines every branch of l with every branch of r — the
// choice axes of the two subtrees are independent.
func (ev *WorldSetEval) crossBranches(l, r Expr, wi int, f func(l, r *instRows) *instRows) ([]*instRows, error) {
	lb, err := ev.branches(l, wi)
	if err != nil {
		return nil, err
	}
	rb, err := ev.branches(r, wi)
	if err != nil {
		return nil, err
	}
	if len(lb)*len(rb) > ev.MaxBranches {
		return nil, fmt.Errorf("algebra: choiceof branch count %d×%d exceeds limit %d", len(lb), len(rb), ev.MaxBranches)
	}
	out := make([]*instRows, 0, len(lb)*len(rb))
	for _, bl := range lb {
		for _, br := range rb {
			out = append(out, f(bl, br))
		}
	}
	return ev.dedupBranches(out)
}

// collapse computes the world-independent value of possible(e) (union
// over every world and branch) or certain(e) (intersection).
func (ev *WorldSetEval) collapse(key, e Expr, union bool) (*instRows, error) {
	k := key.String()
	if ir, ok := ev.memo[k]; ok {
		return ir, nil
	}
	var acc *instRows
	for wi := range ev.worlds {
		bs, err := ev.branches(e, wi)
		if err != nil {
			return nil, err
		}
		for _, b := range bs {
			if acc == nil {
				acc = unionRows(b, b) // copy
			} else if union {
				acc = unionRows(acc, b)
			} else {
				acc = intersectRows(acc, b)
			}
		}
	}
	if acc == nil {
		cols, err := e.Schema()
		if err != nil {
			return nil, err
		}
		acc = newInstRows(cols)
	}
	ev.memo[k] = acc
	return acc, nil
}

// dedupBranches merges branches with identical row sets: downstream
// operators are functions of the value, and worlds are deduplicated at
// the end anyway, so identical branches can never be distinguished.
func (ev *WorldSetEval) dedupBranches(in []*instRows) ([]*instRows, error) {
	if len(in) > ev.MaxBranches {
		return nil, fmt.Errorf("algebra: choiceof branch count %d exceeds limit %d", len(in), ev.MaxBranches)
	}
	seen := make(map[uint64][]*instRows, len(in))
	out := in[:0]
next:
	for _, b := range in {
		h := branchFingerprint(b)
		for _, prev := range seen[h] {
			if sameRows(prev, b) {
				continue next
			}
		}
		seen[h] = append(seen[h], b)
		out = append(out, b)
	}
	return out, nil
}

func sortedTuples(ir *instRows) []sym.Tuple {
	out := append([]sym.Tuple(nil), ir.rows...)
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	return out
}

func tupleLess(a, b sym.Tuple) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if c := sym.Compare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

func branchFingerprint(ir *instRows) uint64 {
	var h uint64
	for _, t := range ir.rows {
		h ^= sym.HashIDs(t) // order-independent combine
	}
	return h ^ uint64(len(ir.rows))<<32
}

func sameRows(a, b *instRows) bool {
	if len(a.rows) != len(b.rows) {
		return false
	}
	for _, t := range a.rows {
		if !b.contains(t) {
			return false
		}
	}
	return true
}
