package table

import (
	"cmp"
	"slices"

	"pw/internal/sym"
)

// Compiled is the decision-procedure state that depends on a database
// alone: its normal form, that form's kind, and per table a row-pattern
// index. Database.Compiled builds it on first use; every later decision
// on the database reuses it.
type Compiled struct {
	// Norm is Normalize(d): d itself when d has no global condition, nil
	// when the global condition is unsatisfiable (rep(d) = ∅).
	Norm *Database
	// Kind is Norm's kind (meaningless when Norm is nil).
	Kind Kind
	// Local reports whether d has a row with a local condition,
	// NormLocal whether Norm has (normalization can make one trivial).
	Local, NormLocal bool

	index []RowIndex // per table of Norm, in Norm's table order
}

// Compiled returns d's compiled form, building it on first use. The
// first builder to finish publishes it; concurrent first callers all
// receive the published value.
func (d *Database) Compiled() *Compiled {
	if c := d.compiled.Load(); c != nil {
		return c
	}
	c := compile(d)
	if d.compiled.CompareAndSwap(nil, c) {
		return c
	}
	return d.compiled.Load()
}

func compile(d *Database) *Compiled {
	c := &Compiled{Local: d.hasLocalConds()}
	nd, ok := Normalize(d)
	if !ok {
		return c
	}
	c.Norm, c.Kind, c.NormLocal = nd, nd.Kind(), nd.hasLocalConds()
	c.index = make([]RowIndex, len(nd.tables))
	for i, t := range nd.tables {
		c.index[i] = newRowIndex(t)
	}
	if nd != d {
		// The normal form is its own normal form: a decision handed Norm
		// directly (a containment's inner membership, an answer sweep)
		// finds the same state instead of normalizing again.
		nc := *c
		nc.Local = c.NormLocal
		nd.compiled.Store(&nc)
	}
	return c
}

// Index returns the row index of Norm's table name, or nil.
func (c *Compiled) Index(name string) *RowIndex {
	if c.Norm == nil {
		return nil
	}
	if i, ok := c.Norm.index[name]; ok {
		return &c.index[i]
	}
	return nil
}

func (d *Database) hasLocalConds() bool {
	for _, t := range d.tables {
		if t.HasLocalConds() {
			return true
		}
	}
	return false
}

// RowIndex finds the rows of a table that can match a ground fact
// without testing every row. Rows are grouped by their pattern, the set
// of columns holding constants, and ordered within a group by a hash of
// those constants: the rows of one group whose constants can equal a
// fact's values there are one binary search away. The index is flat
// arrays only, 12 bytes per row plus a few words per group.
type RowIndex struct {
	t      *Table
	rows   []int32  // row IDs, grouped by pattern, by (hash, ID) within a group
	hashes []uint64 // hashes[k] is the hash of rows[k]'s constants
	groups []int32  // group g is rows[groups[g]:groups[g+1]]
	cols   []int32  // group g's constant columns are cols[colOff[g]:colOff[g+1]]
	colOff []int32
	ground int // the group whose every column holds a constant, or -1
}

const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

func hashStep(h uint64, id sym.ID) uint64 { return (h ^ uint64(id)) * hashPrime }

func newRowIndex(t *Table) RowIndex {
	n := len(t.Rows)
	words := (t.Arity + 63) / 64
	// masks[r*words:(r+1)*words] is row r's pattern as a bit set.
	masks := make([]uint64, n*words)
	rowHash := make([]uint64, n)
	ix := RowIndex{t: t, rows: make([]int32, n), hashes: make([]uint64, n), ground: -1}
	for r, row := range t.Rows {
		h := uint64(hashOffset)
		for c, v := range row.Values {
			if !v.IsVar() {
				masks[r*words+c/64] |= 1 << (c % 64)
				h = hashStep(h, v)
			}
		}
		rowHash[r] = h
		ix.rows[r] = int32(r)
	}
	mask := func(r int32) []uint64 { return masks[int(r)*words : int(r+1)*words] }
	slices.SortFunc(ix.rows, func(a, b int32) int {
		if c := slices.Compare(mask(a), mask(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(rowHash[a], rowHash[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for k, r := range ix.rows {
		ix.hashes[k] = rowHash[r]
		if k > 0 && slices.Equal(mask(r), mask(ix.rows[k-1])) {
			continue
		}
		// Row r opens a new group.
		ix.groups = append(ix.groups, int32(k))
		ix.colOff = append(ix.colOff, int32(len(ix.cols)))
		for c, v := range t.Rows[r].Values {
			if !v.IsVar() {
				ix.cols = append(ix.cols, int32(c))
			}
		}
		if len(ix.cols)-int(ix.colOff[len(ix.colOff)-1]) == t.Arity {
			ix.ground = len(ix.groups) - 1
		}
	}
	ix.groups = append(ix.groups, int32(n))
	ix.colOff = append(ix.colOff, int32(len(ix.cols)))
	return ix
}

// Groups returns the number of row patterns in the table.
func (ix *RowIndex) Groups() int { return len(ix.groups) - 1 }

// run returns the range of group g's rows whose constants hash like f's
// values in g's columns.
func (ix *RowIndex) run(g int, f sym.Tuple) (lo, hi int) {
	h := uint64(hashOffset)
	for _, c := range ix.cols[ix.colOff[g]:ix.colOff[g+1]] {
		h = hashStep(h, f[c])
	}
	start, end := int(ix.groups[g]), int(ix.groups[g+1])
	i, _ := slices.BinarySearch(ix.hashes[start:end], h)
	lo = start + i
	for hi = lo; hi < end && ix.hashes[hi] == h; hi++ {
	}
	return lo, hi
}

// Candidates appends to dst, in ascending row order, every row of the
// table whose constants equal f's values in their columns: each row that
// can match f, plus any a hash collision lets through. f must have the
// table's arity. Repeated variables are not checked here.
func (ix *RowIndex) Candidates(dst []int32, f sym.Tuple) []int32 {
	start := len(dst)
	for g := 0; g < ix.Groups(); g++ {
		lo, hi := ix.run(g, f)
		dst = append(dst, ix.rows[lo:hi]...)
	}
	if ix.Groups() > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// HasGround reports whether some variable-free row of the table equals
// f (local conditions are not consulted).
func (ix *RowIndex) HasGround(f sym.Tuple) bool {
	if ix.ground < 0 || len(f) != ix.t.Arity {
		return false
	}
	lo, hi := ix.run(ix.ground, f)
	for _, r := range ix.rows[lo:hi] {
		if ix.t.Rows[r].Values.Equal(f) {
			return true
		}
	}
	return false
}

// AllGround reports whether every row of the table is variable-free.
func (ix *RowIndex) AllGround() bool {
	return ix.Groups() == 0 || (ix.Groups() == 1 && ix.ground == 0)
}
