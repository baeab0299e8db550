package decide

import (
	"fmt"
	"testing"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
)

// pigeonhole is n variable rows of T(1), pairwise distinct by the global
// condition, against n−1 facts: not a member, and MEMB's search must try
// every injective placement of rows onto facts before it says so.
func pigeonhole(n int) (*rel.Instance, *table.Compiled) {
	tb := table.New("T", 1)
	for a := 0; a < n; a++ {
		x := sym.Var(fmt.Sprintf("x%d", a))
		tb.AddTuple(x)
		for b := 0; b < a; b++ {
			tb.Global = append(tb.Global, cond.NeqAtom(sym.Var(fmt.Sprintf("x%d", b)), x))
		}
	}
	i := rel.NewInstance()
	r := i.EnsureRelation("T", 1)
	for f := 1; f < n; f++ {
		r.AddRow(fmt.Sprintf("a%d", f))
	}
	return i, table.DB(tb).Compiled()
}

// TestMembSearchAllocsFollowRows: a MEMB search node pushes one row's
// atoms onto the decision's equality solver and pops them on backtrack,
// so a decision allocates per row set up, not per node visited. One more
// pigeonhole row multiplies the nodes by at least four; the allocations
// may grow only by a small constant (the setup's slices for one row).
func TestMembSearchAllocsFollowRows(t *testing.T) {
	const slack = 6
	measure := func(n int) (nodes int, allocs float64) {
		i0, c := pigeonhole(n)
		if c.Kind == table.KindCodd {
			t.Fatalf("pigeonhole(%d) is a Codd table: the matching cell, not the search, would decide it", n)
		}
		s := newMembState(i0, c, nil)
		if s.search(0) {
			t.Fatalf("pigeonhole(%d): %d rows cannot be distinct on %d facts", n, n, n-1)
		}
		s.eq.Release()
		return s.nodes, testing.AllocsPerRun(20, func() { membSearch(i0, c, nil) })
	}
	n5, a5 := measure(5)
	n6, a6 := measure(6)
	t.Logf("pigeonhole(5): %d nodes, %.0f allocs; pigeonhole(6): %d nodes, %.0f allocs", n5, a5, n6, a6)
	if n6 < 4*n5 {
		t.Fatalf("nodes grew %d → %d, less than 4×: the family no longer grows the search", n5, n6)
	}
	if a6-a5 > slack {
		t.Errorf("allocs grew %.0f → %.0f with the nodes (%d → %d), more than %d apart: some allocation follows the search nodes",
			a5, a6, n5, n6, slack)
	}
}
