package query

import (
	"fmt"
	"slices"

	"pw/internal/algebra"
	"pw/internal/rel"
)

// HasWorldSetOps reports whether q uses the world-set algebra operators
// (possible/certain/choiceof) anywhere. Such queries are not per-world
// maps: Eval on a single instance refuses them, and decision procedures
// that enumerate candidate worlds cannot apply them soundly.
func HasWorldSetOps(q Query) bool {
	a, ok := q.(Algebra)
	if !ok {
		return false
	}
	for _, o := range a.Outs {
		if algebra.HasWorldSetOps(o.Expr) {
			return true
		}
	}
	return false
}

// Scans names the base relations q reads: the relation of every scan
// in its algebra, each once, in tree order. all is true for the
// identity query, FO and Datalog, which may read any relation. It is the
// read-side twin of wsd.Update.Footprint: a query whose scans are
// disjoint from an update's footprint answers the same before and after
// it.
func Scans(q Query) (rels []string, all bool) {
	a, ok := q.(Algebra)
	if !ok {
		return nil, true
	}
	for _, o := range a.Outs {
		algebra.Walk(o.Expr, func(e algebra.Expr) {
			if r, ok := e.(algebra.Rel); ok && !slices.Contains(rels, r.Name) {
				rels = append(rels, r.Name)
			}
		})
	}
	return rels, false
}

// maxAnswerWorlds bounds the explicit answer-world enumeration of
// EvalOnWorldSet per input world; the oracle exists for harnesses and
// small examples, not production evaluation.
const maxAnswerWorlds = 1 << 16

// EvalOnWorldSet evaluates q against an explicit world set under the
// world-set algebra semantics, returning the answer worlds (with
// duplicates possible; callers deduplicate by fingerprint). Algebra
// queries go through algebra.WorldSetEval: each world contributes the
// cross product of its outputs' choice branches, with possible/certain
// collapsed over the whole world set; without world-set operators that is
// one answer world per input world. Every other query is a per-world map.
func EvalOnWorldSet(q Query, worlds []*rel.Instance) ([]*rel.Instance, error) {
	a, ok := q.(Algebra)
	if !ok {
		out := make([]*rel.Instance, 0, len(worlds))
		for _, w := range worlds {
			r, err := q.Eval(w)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	ev := algebra.NewWorldSetEval(worlds)
	var out []*rel.Instance
	branches := make([][]*rel.Relation, len(a.Outs))
	for wi := range worlds {
		combos := 1
		for i, o := range a.Outs {
			bs, err := ev.Branches(o.Expr, wi)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.Label(), err)
			}
			branches[i] = bs
			combos *= len(bs)
			if combos > maxAnswerWorlds {
				return nil, fmt.Errorf("%s: answer-world count exceeds %d per input world", a.Label(), maxAnswerWorlds)
			}
		}
		// Odometer over the outputs' independent choice axes: one answer
		// world per joint branch choice.
		choice := make([]int, len(a.Outs))
		for {
			inst := rel.NewInstance()
			for i, o := range a.Outs {
				r := branches[i][choice[i]].Clone()
				r.Name = o.Name
				inst.AddRelation(r)
			}
			out = append(out, inst)
			k := len(choice) - 1
			for k >= 0 {
				choice[k]++
				if choice[k] < len(branches[k]) {
					break
				}
				choice[k] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	}
	return out, nil
}
