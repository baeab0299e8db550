package decide

import (
	"fmt"
	"sort"

	"pw/internal/cond"
	"pw/internal/eqlogic"
	"pw/internal/matching"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// Membership decides MEMB(q): is i0 ∈ q(rep(d))? Dispatch:
//
//   - q identity (or positive-existential, lifted first) and the resulting
//     database a vector of Codd-tables: the bipartite-matching algorithm of
//     Theorem 3.1(1), polynomial time;
//   - q liftable: the backtracking row↔fact solver with an equality-logic
//     residual (NP as Theorem 3.1(2,3) and Proposition 2.1(2) require);
//   - otherwise (first-order, DATALOG): exhaustive valuation search over
//     Δ ∪ Δ′ comparing q(σ(d)) with i0.
func (o Options) Membership(i0 *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	if l, ok := query.AsLiftable(q); ok {
		lifted, err := l.EvalLifted(d)
		if err != nil {
			return false, err
		}
		return o.membershipIdentity(i0, lifted)
	}
	return o.membershipGeneric(i0, q, d)
}

// membershipIdentity decides i0 ∈ rep(d).
func (o Options) membershipIdentity(i0 *rel.Instance, d *table.Database) (bool, error) {
	if err := SchemaCheck(i0, d); err != nil {
		return false, err
	}
	c := d.Compiled()
	if c.Norm == nil {
		return false, nil // rep(d) = ∅
	}
	if c.Kind == table.KindCodd {
		return membCodd(i0, c, o.Cost), nil
	}
	return membSearch(i0, c, o.Cost), nil
}

// membCodd implements the algorithm of Theorem 3.1(1): for each table,
// build the bipartite graph between the facts of i0 (left) and the rows of
// the table (right); answer yes iff every row is connected to some fact
// and a maximum matching saturates all facts. Tables in a vector have
// pairwise disjoint variables, so per-relation tests are independent.
func membCodd(i0 *rel.Instance, c *table.Compiled, cost *obs.Cost) bool {
	for _, t := range c.Norm.Tables() {
		facts := i0.Relation(t.Name).Tuples()
		n, m := len(facts), len(t.Rows)
		g := matching.NewGraph(n, m)
		deg := make([]int, m)
		buildMatchGraph(g, deg, facts, t, c, cost)
		// Step (c): a row that can produce no fact of i0 makes σ(T) ⊄ i0.
		for _, dg := range deg {
			if dg == 0 {
				return false
			}
		}
		// Steps (d)-(e): the matching must saturate all facts.
		if _, _, size := matching.HopcroftKarp(g); size != n {
			return false
		}
	}
	return true
}

// buildMatchGraph fills the fact→row candidate graph (and, when deg is
// non-nil, the per-row candidate counts). Each fact's rows come from the
// table's pattern index, in row order, so the adjacency lists are those
// of the full n·m rowMatchesFact sweep at a fraction of the tests.
func buildMatchGraph(g *matching.Graph, deg []int, facts []sym.Tuple, t *table.Table, c *table.Compiled, cost *obs.Cost) {
	m := newMatcher(t, c)
	for ai, u := range facts {
		for _, bj := range m.rows(u) {
			g.AddEdge(ai, int(bj))
			if deg != nil {
				deg[bj]++
			}
		}
	}
	m.done(cost)
}

// matcher lists the rows of one table that match a fact: the candidates
// of the table's pattern index, confirmed by rowMatchesFact (which also
// rejects hash collisions and rows whose repeated variables disagree).
type matcher struct {
	t     *table.Table
	ix    *table.RowIndex
	buf   []int32
	tests int64
}

func newMatcher(t *table.Table, c *table.Compiled) *matcher {
	return &matcher{t: t, ix: c.Index(t.Name)}
}

// rows returns the rows matching u in ascending order. The slice is
// reused by the next call.
func (m *matcher) rows(u sym.Tuple) []int32 {
	m.buf = m.ix.Candidates(m.buf[:0], u)
	m.tests += int64(len(m.buf))
	out := m.buf[:0]
	for _, r := range m.buf {
		if rowMatchesFact(m.t.Rows[r], u) {
			out = append(out, r)
		}
	}
	return out
}

// done records the tests run into the request's cost sink.
func (m *matcher) done(cost *obs.Cost) { cost.Add(obs.DecideMatchTests, m.tests) }

// rowMatchesFact reports whether some valuation maps the row onto the
// fact in isolation: constants agree positionally and repeated variables
// within the row agree. Allocation-free for the common small arities —
// this is the inner loop of the matching-based MEMB/POSS algorithms,
// called once per (row, fact) pair; every comparison is an ID compare.
func rowMatchesFact(row table.Row, f sym.Tuple) bool {
	var names, vals [8]sym.ID
	n := 0
	for i, v := range row.Values {
		id := v.ID()
		if !id.IsVar() {
			if id != f[i] {
				return false
			}
			continue
		}
		seen := false
		for j := 0; j < n; j++ {
			if names[j] == id {
				if vals[j] != f[i] {
					return false
				}
				seen = true
				break
			}
		}
		if !seen {
			if n == len(names) {
				// Arity beyond the fast path: fall back to a map.
				bind := make(map[sym.ID]sym.ID, len(row.Values))
				for j := 0; j < n; j++ {
					bind[names[j]] = vals[j]
				}
				_, ok := unifyTuple(row.Values[i:], f[i:], bind)
				return ok
			}
			names[n], vals[n] = id, f[i]
			n++
		}
	}
	return true
}

// membSearch is the backtracking solver for i0 ∈ rep(d) on general
// c-tables: each row is either mapped onto a fact of its relation (its
// local condition must hold) or dropped (its local condition must fail);
// every fact must be covered by at least one mapped row; the residual
// condition system is discharged by internal/eqlogic.
func membSearch(i0 *rel.Instance, c *table.Compiled, cost *obs.Cost) bool {
	s := newMembState(i0, c, cost)
	if s == nil {
		return false
	}
	return s.search(0)
}

type membRow struct {
	row        table.Row
	relIdx     int
	candidates []int // facts (indices into facts[relIdx]) the row can unify with
	canDrop    bool
}

type membState struct {
	global    cond.Conjunction
	rows      []membRow
	facts     [][]sym.Tuple
	coverCnt  [][]int // per relation, per fact: mapped rows covering it
	remaining [][]int // per relation, per fact: unprocessed rows that could cover it
	uncovered int
	bind      map[sym.ID]sym.ID
	mustTrue  []cond.Conjunction
	mustFalse []cond.Conjunction
}

func newMembState(i0 *rel.Instance, c *table.Compiled, cost *obs.Cost) *membState {
	d := c.Norm
	s := &membState{
		global: d.GlobalConjunction(),
		bind:   map[sym.ID]sym.ID{},
	}
	for ri, t := range d.Tables() {
		fs := i0.Relation(t.Name).Tuples()
		s.facts = append(s.facts, fs)
		s.coverCnt = append(s.coverCnt, make([]int, len(fs)))
		s.remaining = append(s.remaining, make([]int, len(fs)))
		s.uncovered += len(fs)
		base := len(s.rows)
		for _, row := range t.Rows {
			s.rows = append(s.rows, membRow{row: row, relIdx: ri, canDrop: len(row.Cond) > 0})
		}
		// Facts in order, so each row's candidates come out in fact order.
		m := newMatcher(t, c)
		for fi, f := range fs {
			for _, r := range m.rows(f) {
				mr := &s.rows[base+int(r)]
				mr.candidates = append(mr.candidates, fi)
				s.remaining[ri][fi]++
			}
		}
		m.done(cost)
		for _, mr := range s.rows[base:] {
			if len(mr.candidates) == 0 && !mr.canDrop {
				return nil // unconditioned row that fits no fact: immediate no
			}
		}
	}
	// Most-constrained-first: rows with the fewest options fail fast and
	// bind variables early, which is what makes the search practical on
	// the lifted-view workloads.
	sort.SliceStable(s.rows, func(i, j int) bool {
		return s.rows[i].options() < s.rows[j].options()
	})
	return s
}

// options counts a row's branching factor (mapping choices plus drop).
func (r membRow) options() int {
	n := len(r.candidates)
	if r.canDrop {
		n++
	}
	return n
}

// search processes rows[k:]; rows[0:k] have been assigned.
func (s *membState) search(k int) bool {
	if k == len(s.rows) {
		if s.uncovered > 0 {
			return false
		}
		return s.residualSatisfiable()
	}
	r := s.rows[k]
	// A fact that only this row can still cover forces pruning bookkeeping:
	// decrement remaining counts first.
	for _, fi := range r.candidates {
		s.remaining[r.relIdx][fi]--
	}
	defer func() {
		for _, fi := range r.candidates {
			s.remaining[r.relIdx][fi]++
		}
	}()

	for _, fi := range r.candidates {
		bound, ok := unifyTuple(r.row.Values, s.facts[r.relIdx][fi], s.bind)
		if !ok {
			continue
		}
		s.coverCnt[r.relIdx][fi]++
		if s.coverCnt[r.relIdx][fi] == 1 {
			s.uncovered--
		}
		s.mustTrue = append(s.mustTrue, r.row.Cond)
		if s.quickConsistent() && !s.doomed() && s.search(k+1) {
			return true
		}
		s.mustTrue = s.mustTrue[:len(s.mustTrue)-1]
		if s.coverCnt[r.relIdx][fi] == 1 {
			s.uncovered++
		}
		s.coverCnt[r.relIdx][fi]--
		undo(s.bind, bound)
	}
	if r.canDrop {
		s.mustFalse = append(s.mustFalse, r.row.Cond)
		if !s.doomed() && s.search(k+1) {
			return true
		}
		s.mustFalse = s.mustFalse[:len(s.mustFalse)-1]
	}
	return false
}

// doomed reports that some uncovered fact has no remaining row able to
// cover it.
func (s *membState) doomed() bool {
	for ri := range s.facts {
		for fi := range s.facts[ri] {
			if s.coverCnt[ri][fi] == 0 && s.remaining[ri][fi] == 0 {
				return true
			}
		}
	}
	return false
}

// quickConsistent cheaply checks that the global condition plus the chosen
// local conditions remain satisfiable under the current bindings.
func (s *membState) quickConsistent() bool {
	sub := substBindings(s.bind)
	all := s.global.Subst(sub)
	for _, c := range s.mustTrue {
		all = append(all, c.Subst(sub)...)
	}
	return all.Satisfiable()
}

// residualSatisfiable solves the final constraint system: global and
// selected local conditions must hold, dropped local conditions must fail.
func (s *membState) residualSatisfiable() bool {
	sub := substBindings(s.bind)
	p := &eqlogic.Problem{}
	p.RequireAll(s.global.Subst(sub))
	for _, c := range s.mustTrue {
		p.RequireAll(c.Subst(sub))
	}
	for _, c := range s.mustFalse {
		p.Forbid(c.Subst(sub))
	}
	return p.Satisfiable()
}

// membershipGeneric decides MEMB(q) for arbitrary QPTIME queries by the
// Proposition 2.1(2) search: guess a valuation over Δ ∪ Δ′ and compare
// q(σ(d)) with i0. Exponential in the number of variables; the canonical
// space is sharded across the worker pool, and the first witness (or
// evaluation error) in any shard cancels the rest.
func (o Options) membershipGeneric(i0 *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	base, prefix := genericDomain(d, q, i0)
	var evalErr errOnce
	found := o.enumerate(d.Universe(), base, prefix, func(v valuation.V) bool {
		w := applyValuation(v, d)
		if w == nil {
			return false
		}
		out, err := q.Eval(w)
		if err != nil {
			evalErr.set(err)
			return true
		}
		return out.Equal(i0)
	})
	if err := evalErr.get(); err != nil {
		return false, fmt.Errorf("membership(%s): %w", q.Label(), err)
	}
	return found, nil
}

// MembershipWitness returns a world of q(rep(d)) equal to i0 together with
// the verdict; the witness is nil when the answer is no. It always uses
// the sequential generic search (so the witness is the first in canonical
// order); reserve it for small inputs and diagnostics.
func MembershipWitness(i0 *rel.Instance, q query.Query, d *table.Database) (*rel.Instance, bool, error) {
	base, prefix := genericDomain(d, q, i0)
	var witness *rel.Instance
	var evalErr error
	found := valuation.EnumerateCanonical(d.Universe(), base, prefix, func(v valuation.V) bool {
		w := applyValuation(v, d)
		if w == nil {
			return false
		}
		out, err := q.Eval(w)
		if err != nil {
			evalErr = err
			return true
		}
		if out.Equal(i0) {
			witness = out
			return true
		}
		return false
	})
	if evalErr != nil {
		return nil, false, evalErr
	}
	return witness, found, nil
}
