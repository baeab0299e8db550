package algebra

import (
	"fmt"
	"slices"

	"pw/internal/cond"
)

// Map rebuilds e with f applied to each direct operand, left before
// right; scans and constant relations have none and come back as they
// are. It is the one place that knows each operator's operands: Walk,
// Any, Positive, Consts, HasWorldSetOps and every rewrite pass of the
// planner recurse through it, so a new operator needs one case here and
// no other structural recursion learns it. An expression type without a
// case panics rather than reading as a leaf.
func Map(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Rel, ConstRel:
		return e
	case Select:
		return Select{E: f(n.E), Preds: n.Preds}
	case Project:
		return Project{E: f(n.E), Cols: n.Cols}
	case Rename:
		return Rename{E: f(n.E), From: n.From, To: n.To}
	case Join:
		return Join{L: f(n.L), R: f(n.R)}
	case Union:
		return Union{L: f(n.L), R: f(n.R)}
	case Diff:
		return Diff{L: f(n.L), R: f(n.R)}
	case Possible:
		return Possible{E: f(n.E)}
	case Certain:
		return Certain{E: f(n.E)}
	case ChoiceOf:
		return ChoiceOf{E: f(n.E)}
	}
	panic(fmt.Sprintf("algebra: Map has no case for %T", e))
}

// Walk calls f on every node of e in tree order: a node's operands,
// left before right, before the node itself.
func Walk(e Expr, f func(Expr)) {
	Map(e, func(c Expr) Expr {
		Walk(c, f)
		return c
	})
	f(e)
}

// Any reports whether pred holds at some node of e; it stops descending
// once one has been found.
func Any(e Expr, pred func(Expr) bool) bool {
	if pred(e) {
		return true
	}
	found := false
	Map(e, func(c Expr) Expr {
		found = found || Any(c, pred)
		return c
	})
	return found
}

// Positive reports whether e uses only the positive operators: no ≠ in
// a selection and none of diff, possible, certain or choiceof. Positive
// expressions are preserved under homomorphisms, which the certainty
// and uniqueness algorithms rely on (Theorems 3.2(1) and 5.3(1)).
func Positive(e Expr) bool {
	return !Any(e, func(n Expr) bool {
		switch n := n.(type) {
		case Select:
			return slices.ContainsFunc(n.Preds, func(p Pred) bool { return p.Op == cond.Neq })
		case Diff, Possible, Certain, ChoiceOf:
			return true
		}
		return false
	})
}

// Consts returns the constants e mentions in tree order, duplicates
// kept: the literals of each selection after those of its operand, and
// the rows of each constant relation. They join the Δ of Proposition
// 2.1.
func Consts(e Expr) []string {
	var out []string
	Walk(e, func(n Expr) {
		switch n := n.(type) {
		case Select:
			for _, p := range n.Preds {
				for _, o := range []Operand{p.L, p.R} {
					if o.isConst {
						out = append(out, o.k)
					}
				}
			}
		case ConstRel:
			for _, r := range n.Rows {
				out = append(out, r...)
			}
		}
	})
	return out
}

// HasWorldSetOps reports whether e contains possible, certain or choiceof
// anywhere — the operators that only make sense against a world set.
// (Diff is a per-world map and does not count.)
func HasWorldSetOps(e Expr) bool { return worldSetOp(e) != nil }

// worldSetOp returns the first possible, certain or choiceof node of e,
// a node before its operands and left before right, or nil.
func worldSetOp(e Expr) Expr {
	var op Expr
	Any(e, func(n Expr) bool {
		switch n.(type) {
		case Possible, Certain, ChoiceOf:
			op = n
			return true
		}
		return false
	})
	return op
}
