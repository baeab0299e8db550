// Package fo implements first-order queries (§2.1): formulas of first
// order logic with equality (and hence ≠ through negation), evaluated with
// active-domain semantics on complete-information instances. First-order
// queries extend the positive existential queries with negation; the paper
// uses them for the lower bounds of Theorems 5.2(2) and 5.3(2).
//
// The active domain of an evaluation is the set of constants of the
// instance plus the constants of the query. First-order queries are
// generic (commute with bijective renamings), so Proposition 2.1's
// restriction to Δ ∪ Δ′ applies to the decision procedures that call
// this evaluator.
package fo

import (
	"fmt"
	"sort"
	"strings"

	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/value"
)

// Formula is a first-order formula over relation atoms and (in)equalities.
type Formula interface {
	// freeVars appends free variable names (dedup via seen).
	freeVars(dst []string, seen map[string]bool) []string
	// consts appends mentioned constants (dedup via seen).
	consts(dst []string, seen map[string]bool) []string
	// eval decides the formula under env and the instance, with the given
	// active domain for quantifiers.
	eval(inst *rel.Instance, env map[string]string, domain []string) (bool, error)
	// String renders the formula.
	String() string
}

// Atom is R(t1,…,tk); arguments are variables or constants.
type Atom struct {
	Rel  string
	Args []value.Value
}

// At builds an atom.
func At(rel string, args ...value.Value) Atom { return Atom{Rel: rel, Args: args} }

func (a Atom) freeVars(dst []string, seen map[string]bool) []string {
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Name()] {
			seen[t.Name()] = true
			dst = append(dst, t.Name())
		}
	}
	return dst
}

func (a Atom) consts(dst []string, seen map[string]bool) []string {
	for _, t := range a.Args {
		if t.IsConst() && !seen[t.Name()] {
			seen[t.Name()] = true
			dst = append(dst, t.Name())
		}
	}
	return dst
}

func (a Atom) eval(inst *rel.Instance, env map[string]string, _ []string) (bool, error) {
	r := inst.Relation(a.Rel)
	if r == nil {
		return false, fmt.Errorf("fo: relation %s not in instance", a.Rel)
	}
	f := make(rel.Fact, len(a.Args))
	for i, t := range a.Args {
		if t.IsConst() {
			f[i] = t.Name()
		} else {
			v, ok := env[t.Name()]
			if !ok {
				return false, fmt.Errorf("fo: unbound variable ?%s in %s", t.Name(), a)
			}
			f[i] = v
		}
	}
	return r.Has(f), nil
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ","))
}

// Eq is the formula l = r.
type Eq struct{ L, R value.Value }

// Equal builds an equality.
func Equal(l, r value.Value) Eq { return Eq{L: l, R: r} }

func (e Eq) freeVars(dst []string, seen map[string]bool) []string {
	for _, t := range []value.Value{e.L, e.R} {
		if t.IsVar() && !seen[t.Name()] {
			seen[t.Name()] = true
			dst = append(dst, t.Name())
		}
	}
	return dst
}

func (e Eq) consts(dst []string, seen map[string]bool) []string {
	for _, t := range []value.Value{e.L, e.R} {
		if t.IsConst() && !seen[t.Name()] {
			seen[t.Name()] = true
			dst = append(dst, t.Name())
		}
	}
	return dst
}

func (e Eq) eval(_ *rel.Instance, env map[string]string, _ []string) (bool, error) {
	get := func(t value.Value) (string, error) {
		if t.IsConst() {
			return t.Name(), nil
		}
		v, ok := env[t.Name()]
		if !ok {
			return "", fmt.Errorf("fo: unbound variable ?%s in %s", t.Name(), e)
		}
		return v, nil
	}
	l, err := get(e.L)
	if err != nil {
		return false, err
	}
	r, err := get(e.R)
	if err != nil {
		return false, err
	}
	return l == r, nil
}

func (e Eq) String() string { return e.L.String() + " = " + e.R.String() }

// Neq builds l ≠ r as ¬(l = r).
func Neq(l, r value.Value) Formula { return Not{Eq{L: l, R: r}} }

// Not is negation.
type Not struct{ F Formula }

func (n Not) freeVars(dst []string, seen map[string]bool) []string {
	return n.F.freeVars(dst, seen)
}
func (n Not) consts(dst []string, seen map[string]bool) []string {
	return n.F.consts(dst, seen)
}
func (n Not) eval(inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	b, err := n.F.eval(inst, env, dom)
	return !b, err
}
func (n Not) String() string { return "not(" + n.F.String() + ")" }

// And is conjunction (empty = true).
type And []Formula

func (f And) freeVars(dst []string, seen map[string]bool) []string {
	for _, s := range f {
		dst = s.freeVars(dst, seen)
	}
	return dst
}
func (f And) consts(dst []string, seen map[string]bool) []string {
	for _, s := range f {
		dst = s.consts(dst, seen)
	}
	return dst
}
func (f And) eval(inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	for _, s := range f {
		b, err := s.eval(inst, env, dom)
		if err != nil || !b {
			return false, err
		}
	}
	return true, nil
}
func (f And) String() string { return joinFormulas([]Formula(f), " and ", "true") }

// Or is disjunction (empty = false).
type Or []Formula

func (f Or) freeVars(dst []string, seen map[string]bool) []string {
	for _, s := range f {
		dst = s.freeVars(dst, seen)
	}
	return dst
}
func (f Or) consts(dst []string, seen map[string]bool) []string {
	for _, s := range f {
		dst = s.consts(dst, seen)
	}
	return dst
}
func (f Or) eval(inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	for _, s := range f {
		b, err := s.eval(inst, env, dom)
		if err != nil {
			return false, err
		}
		if b {
			return true, nil
		}
	}
	return false, nil
}
func (f Or) String() string { return joinFormulas([]Formula(f), " or ", "false") }

// Exists quantifies variables existentially over the active domain.
type Exists struct {
	Vars []string
	F    Formula
}

func (q Exists) freeVars(dst []string, seen map[string]bool) []string {
	return quantFreeVars(q.Vars, q.F, dst, seen)
}
func (q Exists) consts(dst []string, seen map[string]bool) []string {
	return q.F.consts(dst, seen)
}
func (q Exists) eval(inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	var unbound []string
	for _, v := range q.Vars {
		if _, ok := env[v]; !ok {
			unbound = append(unbound, v)
		}
	}
	return existsDrive(unbound, q.F, inst, env, dom)
}

// existsDrive decides ∃ unbound: f by driving bindings from positive atom
// conjuncts: a satisfying assignment must match each top-level atom to
// some fact, so iterating a relation's facts (a join) replaces blind
// domain enumeration. Variables mentioned only under negation or
// disjunction fall back to domain enumeration. This is what makes the
// first-order reduction queries of Theorems 5.2(2)/5.3(2) evaluable at
// benchmark sizes.
func existsDrive(unbound []string, f Formula, inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	if len(unbound) == 0 {
		return f.eval(inst, env, dom)
	}
	isUnbound := make(map[string]bool, len(unbound))
	for _, v := range unbound {
		isUnbound[v] = true
	}
	for _, c := range flattenAnd(f) {
		a, ok := c.(Atom)
		if !ok {
			continue
		}
		drives := false
		for _, t := range a.Args {
			if t.IsVar() && isUnbound[t.Name()] {
				drives = true
				break
			}
		}
		if !drives {
			continue
		}
		r := inst.Relation(a.Rel)
		if r == nil {
			return false, fmt.Errorf("fo: relation %s not in instance", a.Rel)
		}
		for _, fact := range r.Facts() {
			bound, ok := bindAtom(a, fact, env, isUnbound)
			if !ok {
				continue
			}
			rest := unbound[:0:0]
			for _, v := range unbound {
				if _, nowBound := env[v]; !nowBound {
					rest = append(rest, v)
				}
			}
			b, err := existsDrive(rest, f, inst, env, dom)
			for _, v := range bound {
				delete(env, v)
			}
			if err != nil {
				return false, err
			}
			if b {
				return true, nil
			}
		}
		// Every satisfying assignment must match this atom to some fact;
		// all facts have been tried.
		return false, nil
	}
	// No positive atom mentions an unbound variable: enumerate one
	// variable over the active domain and recurse.
	v := unbound[0]
	for _, c := range dom {
		env[v] = c
		b, err := existsDrive(unbound[1:], f, inst, env, dom)
		delete(env, v)
		if err != nil {
			return false, err
		}
		if b {
			return true, nil
		}
	}
	return false, nil
}

// flattenAnd returns the top-level conjuncts of f.
func flattenAnd(f Formula) []Formula {
	if a, ok := f.(And); ok {
		var out []Formula
		for _, s := range a {
			out = append(out, flattenAnd(s)...)
		}
		return out
	}
	return []Formula{f}
}

// bindAtom unifies atom args with a fact, binding only variables in
// bindable; it returns the newly bound variables for undo.
func bindAtom(a Atom, fact rel.Fact, env map[string]string, bindable map[string]bool) ([]string, bool) {
	var bound []string
	undo := func() {
		for _, v := range bound {
			delete(env, v)
		}
	}
	for i, t := range a.Args {
		if t.IsConst() {
			if t.Name() != fact[i] {
				undo()
				return nil, false
			}
			continue
		}
		if val, ok := env[t.Name()]; ok {
			if val != fact[i] {
				undo()
				return nil, false
			}
			continue
		}
		if !bindable[t.Name()] {
			undo()
			return nil, false
		}
		env[t.Name()] = fact[i]
		bound = append(bound, t.Name())
	}
	return bound, true
}
func (q Exists) String() string {
	return "exists " + strings.Join(q.Vars, ",") + ". (" + q.F.String() + ")"
}

// ForAll quantifies variables universally over the active domain.
type ForAll struct {
	Vars []string
	F    Formula
}

func (q ForAll) freeVars(dst []string, seen map[string]bool) []string {
	return quantFreeVars(q.Vars, q.F, dst, seen)
}
func (q ForAll) consts(dst []string, seen map[string]bool) []string {
	return q.F.consts(dst, seen)
}
func (q ForAll) eval(inst *rel.Instance, env map[string]string, dom []string) (bool, error) {
	all := true
	err := forAssignments(q.Vars, dom, env, func() (bool, error) {
		b, err := q.F.eval(inst, env, dom)
		if err != nil {
			return false, err
		}
		if !b {
			all = false
			return true, nil
		}
		return false, nil
	})
	return all, err
}
func (q ForAll) String() string {
	return "forall " + strings.Join(q.Vars, ",") + ". (" + q.F.String() + ")"
}

func quantFreeVars(bound []string, f Formula, dst []string, seen map[string]bool) []string {
	inner := f.freeVars(nil, map[string]bool{})
	isBound := map[string]bool{}
	for _, v := range bound {
		isBound[v] = true
	}
	for _, v := range inner {
		if !isBound[v] && !seen[v] {
			seen[v] = true
			dst = append(dst, v)
		}
	}
	return dst
}

// forAssignments enumerates assignments of vars over dom, mutating env in
// place and restoring it afterwards; fn returns stop=true to end early.
func forAssignments(vars []string, dom []string, env map[string]string, fn func() (bool, error)) error {
	if len(vars) == 0 {
		_, err := fn()
		return err
	}
	saved := make([]string, len(vars))
	had := make([]bool, len(vars))
	for i, v := range vars {
		saved[i], had[i] = env[v], false
		if _, ok := env[v]; ok {
			had[i] = true
		}
	}
	defer func() {
		for i, v := range vars {
			if had[i] {
				env[v] = saved[i]
			} else {
				delete(env, v)
			}
		}
	}()
	idx := make([]int, len(vars))
	if len(dom) == 0 {
		return nil
	}
	for {
		for i, v := range vars {
			env[v] = dom[idx[i]]
		}
		stop, err := fn()
		if err != nil || stop {
			return err
		}
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(dom) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Query is {(x1,…,xk) | φ}: the answer relation collects the head-variable
// assignments over the active domain satisfying Body.
type Query struct {
	Head []string
	Body Formula
}

// Consts returns the constants mentioned by the query.
func (q Query) Consts() []string {
	return q.Body.consts(nil, map[string]bool{})
}

// FreeVars returns the free variables of the body not bound by the head —
// these must be empty for a well-formed query.
func (q Query) FreeVars() []string {
	seen := map[string]bool{}
	for _, h := range q.Head {
		seen[h] = true
	}
	return q.Body.freeVars(nil, seen)
}

// validateAtoms walks the formula and checks every relation atom against
// the instance's schema, so schema errors surface even when the active
// domain is empty and no atom would be evaluated.
func validateAtoms(f Formula, inst *rel.Instance) error {
	switch n := f.(type) {
	case Atom:
		r := inst.Relation(n.Rel)
		if r == nil {
			return fmt.Errorf("fo: relation %s not in instance", n.Rel)
		}
		if r.Arity != len(n.Args) {
			return fmt.Errorf("fo: atom %s has arity %d, relation has %d", n, len(n.Args), r.Arity)
		}
	case Eq:
	case Not:
		return validateAtoms(n.F, inst)
	case And:
		for _, s := range n {
			if err := validateAtoms(s, inst); err != nil {
				return err
			}
		}
	case Or:
		for _, s := range n {
			if err := validateAtoms(s, inst); err != nil {
				return err
			}
		}
	case Exists:
		return validateAtoms(n.F, inst)
	case ForAll:
		return validateAtoms(n.F, inst)
	}
	return nil
}

// Eval evaluates the query on inst with active-domain semantics, returning
// a relation named name. The domain is adom(inst) ∪ consts(q).
func (q Query) Eval(inst *rel.Instance, name string) (*rel.Relation, error) {
	if fv := q.FreeVars(); len(fv) > 0 {
		return nil, fmt.Errorf("fo: free variables %v not in head %v", fv, q.Head)
	}
	if err := validateAtoms(q.Body, inst); err != nil {
		return nil, err
	}
	dom := sym.Names(inst.ConstIDs(nil, map[sym.ID]bool{}))
	seen := make(map[string]bool, len(dom))
	for _, c := range dom {
		seen[c] = true
	}
	dom = q.Body.consts(dom, seen)
	sort.Strings(dom)
	out := rel.NewRelation(name, len(q.Head))
	env := map[string]string{}
	err := forAssignments(q.Head, dom, env, func() (bool, error) {
		b, err := q.Body.eval(inst, env, dom)
		if err != nil {
			return false, err
		}
		if b {
			f := make(rel.Fact, len(q.Head))
			for i, h := range q.Head {
				f[i] = env[h]
			}
			out.Add(f)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the query.
func (q Query) String() string {
	return "{(" + strings.Join(q.Head, ",") + ") | " + q.Body.String() + "}"
}
