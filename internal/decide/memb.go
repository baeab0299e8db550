package decide

import (
	"fmt"
	"slices"

	"pw/internal/cond"
	"pw/internal/eqlogic"
	"pw/internal/matching"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
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
// of the full n·m rowMatchesFact sweep at a fraction of the tests. All
// lists share one array, cut into capacity-capped windows once every
// fact is placed. It returns the number of edges.
func buildMatchGraph(g *matching.Graph, deg []int, facts []sym.Tuple, t *table.Table, c *table.Compiled, cost *obs.Cost) int {
	m := newMatcher(t, c)
	var edges []int
	end := make([]int, len(facts))
	for ai, u := range facts {
		for _, bj := range m.rows(u) {
			edges = append(edges, int(bj))
			if deg != nil {
				deg[bj]++
			}
		}
		end[ai] = len(edges)
	}
	start := 0
	for ai, e := range end {
		g.Adj[ai] = edges[start:e:e]
		start = e
	}
	m.done(cost)
	return len(edges)
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
// within the row agree. Allocation-free — this is the inner loop of the
// matching-based MEMB/POSS algorithms, called once per (row, fact) pair;
// every comparison is an ID compare, and a variable is checked against
// its earlier occurrences, a few at the arities tables have.
func rowMatchesFact(row table.Row, f sym.Tuple) bool {
	for i, id := range row.Values {
		if !id.IsVar() {
			if id != f[i] {
				return false
			}
			continue
		}
		for j, w := range row.Values[:i] {
			if w == id && f[j] != f[i] {
				return false
			}
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
	defer s.eq.Release()
	return s.search(0)
}

type membRow struct {
	row        table.Row
	relIdx     int
	candidates []int // facts (indices into facts[relIdx]) the row can unify with
	canDrop    bool
	neg        eqlogic.Clause // ¬(local condition), made when the row is first dropped
}

type membState struct {
	rows      []membRow
	facts     [][]sym.Tuple
	coverCnt  [][]int // per relation, per fact: mapped rows covering it
	remaining [][]int // per relation, per fact: unprocessed rows that could cover it
	uncovered int
	// eq holds the global condition and, per mapped row, its local
	// condition and its values' equalities with the fact it maps onto:
	// one Push per mapped row, popped on backtrack.
	eq      *cond.Solver
	atoms   cond.Conjunction // scratch for one row's push
	dropped []eqlogic.Clause // negated local conditions of the dropped rows
	nodes   int              // search calls
}

func newMembState(i0 *rel.Instance, c *table.Compiled, cost *obs.Cost) *membState {
	d := c.Norm
	s := &membState{rows: make([]membRow, 0, d.Size())}
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
		// A row's candidates are its edges of the fact→row graph, in
		// fact order, every row's cut from one array.
		g := matching.NewGraph(len(fs), len(t.Rows))
		deg := make([]int, len(t.Rows))
		flat := make([]int, buildMatchGraph(g, deg, fs, t, c, cost))
		off := 0
		for j, n := range deg {
			s.rows[base+j].candidates = flat[off : off : off+n]
			off += n
		}
		for fi, rows := range g.Adj {
			s.remaining[ri][fi] = len(rows)
			for _, r := range rows {
				mr := &s.rows[base+r]
				mr.candidates = append(mr.candidates, fi)
			}
		}
		for _, mr := range s.rows[base:] {
			if len(mr.candidates) == 0 && !mr.canDrop {
				return nil // unconditioned row that fits no fact: immediate no
			}
		}
	}
	// Most-constrained-first: rows with the fewest options fail fast and
	// bind variables early, which is what makes the search practical on
	// the lifted-view workloads.
	slices.SortStableFunc(s.rows, func(a, b membRow) int { return a.options() - b.options() })
	s.dropped = make([]eqlogic.Clause, 0, len(s.rows))
	// The normal form's global condition is satisfiable, so these
	// pushes succeed; they stay for the whole search.
	s.eq = cond.GetSolver()
	for _, t := range d.Tables() {
		s.eq.Push(t.Global...)
	}
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
	s.nodes++
	if k == len(s.rows) {
		// eq holds the global condition and the mapped rows' atoms; the
		// dropped rows' conditions must fail on top of them.
		return s.uncovered == 0 && eqlogic.SatisfiableOn(s.eq, s.dropped)
	}
	r := &s.rows[k]
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
		s.atoms = append(bindAtoms(s.atoms[:0], r.row.Values, s.facts[r.relIdx][fi]), r.row.Cond...)
		if !s.eq.Push(s.atoms...) {
			continue
		}
		s.coverCnt[r.relIdx][fi]++
		if s.coverCnt[r.relIdx][fi] == 1 {
			s.uncovered--
		}
		if !s.doomed() && s.search(k+1) {
			return true
		}
		if s.coverCnt[r.relIdx][fi] == 1 {
			s.uncovered++
		}
		s.coverCnt[r.relIdx][fi]--
		s.eq.Pop()
	}
	if r.canDrop {
		if r.neg == nil {
			r.neg = eqlogic.NegationOf(r.row.Cond)
		}
		s.dropped = append(s.dropped, r.neg)
		if !s.doomed() && s.search(k+1) {
			return true
		}
		s.dropped = s.dropped[:len(s.dropped)-1]
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

// membershipGeneric decides MEMB(q) for arbitrary QPTIME queries by the
// Proposition 2.1(2) search: guess a valuation over Δ ∪ Δ′ and compare
// q(σ(d)) with i0. Exponential in the number of variables; the canonical
// space is sharded across the worker pool, and the first witness (or
// evaluation error) in any shard cancels the rest.
func (o Options) membershipGeneric(i0 *rel.Instance, q query.Query, d *table.Database) (bool, error) {
	found, err := o.anyImage(d, q, i0, func(out *rel.Instance) bool { return out.Equal(i0) })
	if err != nil {
		return false, fmt.Errorf("membership(%s): %w", q.Label(), err)
	}
	return found, nil
}
