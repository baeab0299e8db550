// Package datalog implements the pure DATALOG queries of §2.1: fixpoints
// of positive existential queries, without ≠. Programs are sets of Horn
// rules over EDB (stored) and IDB (derived) predicates, evaluated to the
// least fixpoint either naively or semi-naively (the production strategy;
// the naive strategy is kept for the ablation benchmark A4).
//
// DATALOG queries are monotone and preserved under homomorphisms, which is
// what makes certainty on g-tables computable by evaluating the frozen
// table as if it were complete information (Theorem 5.3(1), after [10,17]).
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"pw/internal/rel"
	"pw/internal/sym"
)

// Atom is P(t1,…,tk) with variable or constant arguments.
type Atom struct {
	Pred string
	Args []sym.ID
}

// At builds an atom.
func At(pred string, args ...sym.ID) Atom { return Atom{Pred: pred, Args: args} }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// Rule is Head :- Body[0], …, Body[n-1]. All body atoms are positive. Every
// head variable must occur in the body (range restriction).
type Rule struct {
	Head Atom
	Body []Atom
}

// R builds a rule.
func R(head Atom, body ...Atom) Rule { return Rule{Head: head, Body: body} }

// String renders the rule.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// rangeRestricted checks that head variables occur in the body.
func (r Rule) rangeRestricted() error {
	inBody := map[string]bool{}
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				inBody[t.Name()] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar() && !inBody[t.Name()] {
			return fmt.Errorf("datalog: head variable ?%s of %s not bound in body", t.Name(), r)
		}
	}
	return nil
}

// Program is a set of rules. IDB predicates are those occurring in rule
// heads; all other predicates are EDB and must be present in the input
// instance.
type Program struct {
	Rules []Rule
}

// IDB returns the derived predicate names with their arities.
func (p Program) IDB() map[string]int {
	out := map[string]int{}
	for _, r := range p.Rules {
		out[r.Head.Pred] = len(r.Head.Args)
	}
	return out
}

// Consts returns the constants mentioned by the program.
func (p Program) Consts() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range p.Rules {
		for _, a := range append([]Atom{r.Head}, r.Body...) {
			for _, t := range a.Args {
				if !t.IsVar() && !seen[t.Name()] {
					seen[t.Name()] = true
					out = append(out, t.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks range restriction of every rule.
func (p Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.rangeRestricted(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the program one rule per line.
func (p Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// Eval computes the least fixpoint semi-naively and returns an instance
// containing the IDB relations (EDB relations are not echoed).
func (p Program) Eval(inst *rel.Instance) (*rel.Instance, error) {
	return p.eval(inst, true)
}

// EvalNaive recomputes every rule against the full database each round —
// the textbook naive strategy, quadratically slower on recursive programs.
// Kept for ablation A4.
func (p Program) EvalNaive(inst *rel.Instance) (*rel.Instance, error) {
	return p.eval(inst, false)
}

func (p Program) eval(inst *rel.Instance, seminaive bool) (*rel.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idb := rel.NewInstance()
	delta := rel.NewInstance()
	for pred, ar := range p.IDB() {
		idb.AddRelation(rel.NewRelation(pred, ar))
		delta.AddRelation(rel.NewRelation(pred, ar))
	}
	lookup := func(pred string) *rel.Relation {
		if r := idb.Relation(pred); r != nil {
			return r
		}
		return inst.Relation(pred)
	}

	// First round: all rules on EDB ∪ (empty IDB).
	round := 0
	for {
		next := rel.NewInstance()
		for pred, ar := range p.IDB() {
			next.AddRelation(rel.NewRelation(pred, ar))
		}
		for _, r := range p.Rules {
			// Semi-naive: after round 0, only consider derivations using at
			// least one delta atom for an IDB predicate.
			if err := applyRule(r, lookup, delta, next, seminaive && round > 0); err != nil {
				return nil, err
			}
		}
		grew := false
		newDelta := rel.NewInstance()
		for pred, ar := range p.IDB() {
			nd := rel.NewRelation(pred, ar)
			cur := idb.Relation(pred)
			for _, f := range next.Relation(pred).Facts() {
				if !cur.Has(f) {
					cur.Add(f)
					nd.Add(f)
					grew = true
				}
			}
			newDelta.AddRelation(nd)
		}
		delta = newDelta
		round++
		if !grew {
			break
		}
	}
	return idb, nil
}

// applyRule joins the body atoms against the database and adds the head
// instantiations to out. With useDelta set, at least one IDB body atom is
// required to match the delta relation (semi-naive differentiation); the
// rule is then applied once per choice of delta position.
func applyRule(r Rule, lookup func(string) *rel.Relation, delta, out *rel.Instance, useDelta bool) error {
	idbPositions := []int{}
	for i, a := range r.Body {
		if delta.Relation(a.Pred) != nil {
			idbPositions = append(idbPositions, i)
		}
	}
	variants := [][]int{nil}
	if useDelta {
		if len(idbPositions) == 0 {
			return nil // pure-EDB rule contributes nothing after round 0
		}
		variants = nil
		for _, pos := range idbPositions {
			variants = append(variants, []int{pos})
		}
	}
	for _, v := range variants {
		deltaAt := -1
		if len(v) == 1 {
			deltaAt = v[0]
		}
		if err := joinBody(r, lookup, delta, out, deltaAt, 0, map[string]string{}); err != nil {
			return err
		}
	}
	return nil
}

func joinBody(r Rule, lookup func(string) *rel.Relation, delta, out *rel.Instance, deltaAt, i int, env map[string]string) error {
	if i == len(r.Body) {
		f := make(rel.Fact, len(r.Head.Args))
		for j, t := range r.Head.Args {
			if !t.IsVar() {
				f[j] = t.Name()
			} else {
				f[j] = env[t.Name()]
			}
		}
		out.Relation(r.Head.Pred).Add(f)
		return nil
	}
	a := r.Body[i]
	var source *rel.Relation
	if i == deltaAt {
		source = delta.Relation(a.Pred)
	} else {
		source = lookup(a.Pred)
	}
	if source == nil {
		return fmt.Errorf("datalog: predicate %s not found (neither EDB nor IDB)", a.Pred)
	}
	if source.Arity != len(a.Args) {
		return fmt.Errorf("datalog: atom %s has arity %d, relation has %d", a, len(a.Args), source.Arity)
	}
nextFact:
	for _, f := range source.Facts() {
		bound := []string{}
		for j, t := range a.Args {
			if !t.IsVar() {
				if f[j] != t.Name() {
					continue nextFact
				}
				continue
			}
			if v, ok := env[t.Name()]; ok {
				if v != f[j] {
					for _, b := range bound {
						delete(env, b)
					}
					continue nextFact
				}
			} else {
				env[t.Name()] = f[j]
				bound = append(bound, t.Name())
			}
		}
		if err := joinBody(r, lookup, delta, out, deltaAt, i+1, env); err != nil {
			return err
		}
		for _, b := range bound {
			delete(env, b)
		}
	}
	return nil
}
