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

	"pw/internal/rel"
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

// maxBranches bounds the number of choice branches tracked for any
// single (expression, world) pair before evaluation refuses, as query's
// maxAnswerWorlds bounds the answer worlds built from them.
const maxBranches = 1 << 16

// WorldSetEval evaluates expressions over an explicit world set, world by
// world. It is the one evaluator of an expression on explicit worlds: a
// complete-information instance is the set of one world (EvalToRelation).
// As the oracle semantics for the world-set algebra its cost is linear in
// the number of worlds and exponential in choiceof nesting, so world sets
// of more than one world come from the differential harness and small
// examples; real evaluation runs natively on decompositions in
// internal/wsdalg.
type WorldSetEval struct {
	worlds []*rel.Instance
	// memo caches the world-independent value of possible(e)/certain(e)
	// subexpressions, keyed by their rendering; made on first use.
	memo map[string]branch
}

// branch is one possible value of an expression in one world: its rows,
// an unnamed relation, beside its column names. Kernels never modify a
// branch's rows after building them, so branches may share them.
type branch struct {
	cols []string
	rows *rel.Relation
}

func newBranch(cols []string) branch {
	return branch{cols: cols, rows: rel.NewRelation("", len(cols))}
}

// NewWorldSetEval builds an evaluator over the given worlds.
func NewWorldSetEval(worlds []*rel.Instance) *WorldSetEval {
	return &WorldSetEval{worlds: worlds}
}

// Branches returns the possible values of e in world wi: one unnamed
// relation per joint choice of the choiceof axes inside e (branches with
// identical values are merged). The relations belong to the evaluator;
// callers must not modify them.
func (ev *WorldSetEval) Branches(e Expr, wi int) ([]*rel.Relation, error) {
	bs, err := ev.branches(e, wi)
	if err != nil {
		return nil, err
	}
	out := make([]*rel.Relation, len(bs))
	for i, b := range bs {
		out[i] = b.rows
	}
	return out, nil
}

// branches evaluates e in world wi. Every node checks its own schema
// before evaluating its operands, and every result has at least one
// branch.
func (ev *WorldSetEval) branches(e Expr, wi int) ([]branch, error) {
	switch n := e.(type) {
	case ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		out := newBranch(cols)
		for _, r := range n.Rows {
			out.rows.Insert(rel.Fact(r).Intern())
		}
		return []branch{out}, nil

	case Rel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		base := ev.worlds[wi].Relation(n.Name)
		if base == nil {
			return nil, fmt.Errorf("algebra: relation %s not in instance", n.Name)
		}
		if base.Arity != len(cols) {
			return nil, fmt.Errorf("algebra: scan %s names %d columns, relation has arity %d",
				n.Name, len(cols), base.Arity)
		}
		// A copy, so the result can be named without touching the world.
		rows := base.Clone()
		rows.Name = ""
		return []branch{{cols: cols, rows: rows}}, nil

	case Project:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		out := make([]branch, len(in))
		for i, b := range in {
			out[i] = projectRows(b, n.Cols)
		}
		return dedupBranches(out)

	case Select:
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		out := make([]branch, len(in))
		for i, b := range in {
			out[i] = selectRows(b, n.Preds)
		}
		return dedupBranches(out)

	case Rename:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		// Renaming changes the columns only: the branches stay distinct
		// and keep their rows.
		for i := range in {
			in[i].cols = cols
		}
		return in, nil

	case Join:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return ev.crossBranches(n.L, n.R, wi, func(l, r branch) branch {
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
		b, err := ev.collapse(n, n.E, true)
		if err != nil {
			return nil, err
		}
		return []branch{b}, nil

	case Certain:
		b, err := ev.collapse(n, n.E, false)
		if err != nil {
			return nil, err
		}
		return []branch{b}, nil

	case ChoiceOf:
		in, err := ev.branches(n.E, wi)
		if err != nil {
			return nil, err
		}
		var out []branch
		for _, b := range in {
			if b.rows.Len() == 0 {
				out = append(out, b)
				continue
			}
			for _, t := range b.rows.Tuples() {
				one := newBranch(b.cols)
				one.rows.Insert(t)
				out = append(out, one)
			}
		}
		return dedupBranches(out)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

// crossBranches combines every branch of l with every branch of r — the
// choice axes of the two subtrees are independent.
func (ev *WorldSetEval) crossBranches(l, r Expr, wi int, f func(l, r branch) branch) ([]branch, error) {
	lb, err := ev.branches(l, wi)
	if err != nil {
		return nil, err
	}
	rb, err := ev.branches(r, wi)
	if err != nil {
		return nil, err
	}
	if len(lb)*len(rb) > maxBranches {
		return nil, fmt.Errorf("algebra: choiceof branch count %d×%d exceeds limit %d", len(lb), len(rb), maxBranches)
	}
	out := make([]branch, 0, len(lb)*len(rb))
	for _, bl := range lb {
		for _, br := range rb {
			out = append(out, f(bl, br))
		}
	}
	return dedupBranches(out)
}

// collapse computes the world-independent value of possible(e) (union
// over every world and branch) or certain(e) (intersection).
func (ev *WorldSetEval) collapse(key, e Expr, union bool) (branch, error) {
	k := key.String()
	if b, ok := ev.memo[k]; ok {
		return b, nil
	}
	var acc branch
	for wi := range ev.worlds {
		bs, err := ev.branches(e, wi)
		if err != nil {
			return branch{}, err
		}
		for _, b := range bs {
			switch {
			case acc.rows == nil:
				acc = branch{cols: b.cols, rows: b.rows.Clone()}
			case union:
				acc.rows.UnionWith(b.rows)
			default:
				acc = intersectRows(acc, b)
			}
		}
	}
	if acc.rows == nil {
		cols, err := e.Schema()
		if err != nil {
			return branch{}, err
		}
		acc = newBranch(cols)
	}
	if ev.memo == nil {
		ev.memo = map[string]branch{}
	}
	ev.memo[k] = acc
	return acc, nil
}

// dedupBranches merges branches with identical row sets: downstream
// operators are functions of the value, and worlds are deduplicated at
// the end anyway, so identical branches can never be distinguished.
func dedupBranches(in []branch) ([]branch, error) {
	if len(in) > maxBranches {
		return nil, fmt.Errorf("algebra: choiceof branch count %d exceeds limit %d", len(in), maxBranches)
	}
	if len(in) < 2 {
		return in, nil
	}
	seen := make(map[uint64][]*rel.Relation, len(in))
	out := in[:0]
next:
	for _, b := range in {
		h := b.rows.Fingerprint()
		for _, prev := range seen[h] {
			if prev.Equal(b.rows) {
				continue next
			}
		}
		seen[h] = append(seen[h], b.rows)
		out = append(out, b)
	}
	return out, nil
}
