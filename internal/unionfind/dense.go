// Package unionfind provides a disjoint-set forest over dense integer
// nodes with path compression and union by rank. Decomposition
// normalization, compilation and updates (internal/wsd) and the lifted
// evaluator's merges and containment (internal/wsdalg) group components
// with it.
package unionfind

import "slices"

// Dense is a disjoint-set forest over dense integer nodes 0..n-1 with path
// compression and union by rank: callers map their keys (symbol IDs,
// component indices) to dense node indices once and then merge/find in
// pure integer arithmetic, with no map probe or key allocation per
// operation.
type Dense struct {
	parent []int32
	rank   []uint8
}

// NewDense returns a forest of n singleton classes. n may be zero; Grow
// extends the forest later.
func NewDense(n int) *Dense {
	d := &Dense{}
	d.Grow(n)
	return d
}

// Reset makes the forest n singleton classes again, reusing its
// storage.
func (d *Dense) Reset(n int) {
	d.parent, d.rank = slices.Grow(d.parent[:0], n)[:n], slices.Grow(d.rank[:0], n)[:n]
	for i := range d.parent {
		d.parent[i], d.rank[i] = int32(i), 0
	}
}

// Grow extends the forest to at least n nodes, each new node a singleton.
func (d *Dense) Grow(n int) {
	for len(d.parent) < n {
		d.parent = append(d.parent, int32(len(d.parent)))
		d.rank = append(d.rank, 0)
	}
}

// Len returns the number of nodes.
func (d *Dense) Len() int { return len(d.parent) }

// Find returns the representative of x's class.
func (d *Dense) Find(x int32) int32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		x, d.parent[x] = d.parent[x], root
	}
	return root
}

// Union merges the classes of a and b and returns the new representative.
func (d *Dense) Union(a, b int32) int32 {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return ra
}

// Same reports whether a and b share a class.
func (d *Dense) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }
