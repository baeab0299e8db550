// Per-version storage that a write copies only where it touches. A
// normalized decomposition is a chain of immutable versions (update.go):
// each write forks its successor from the parent and must leave the
// parent intact for readers still holding it. Two structures make that
// cost what the write touches instead of what the decomposition holds.
//
//   - chunked is a copy-on-write array: fixed-size chunks behind a chunk
//     table. A fork shares both; the first write into a chunk copies that
//     chunk (and, once per version, the table), so a write pays for the
//     chunks it touches plus one table copy of 8 bytes per chunk. The
//     component store, the fact table and the per-fact derived arrays
//     (owning component, certainty) are chunked.
//   - idList is an ascending component-ID list held as the base it was
//     last folded into plus this version's delta: the base IDs removed
//     since, and the IDs added since. The merged view is the filtered
//     base merged with the added list. The per-relation component and
//     template lists are idLists.
//
// A delta is folded into a fresh base once it exceeds 1/foldDiv of the
// base, so a long write stream keeps its deltas small and its reads
// close to the base's cost; a version with no delta reads the base
// directly.
package wsd

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

const (
	// chunkBytes is the payload a chunk aims at: chunks hold a power of
	// two of elements, at least 128 and as many as fit.
	chunkBytes = 4096
	// foldDiv is the fold rule: a delta larger than 1/foldDiv of its base
	// is folded into a fresh base.
	foldDiv = 8
)

// genSeq hands out version generations: a chunk tagged with a version's
// generation was copied by that version and is its own to write.
var genSeq atomic.Uint64

// chunk is one fixed-size piece of a chunked array (the last may be
// shorter), tagged with the generation of the version that may write
// it in place.
type chunk[T any] struct {
	gen uint64
	a   []T
}

// chunked is a copy-on-write array (see the file comment): a table of
// chunk pointers, 8 bytes per chunk, which is all a write copies of
// the chunks it does not touch. The zero value is an empty array owned
// by nobody; its first write takes a generation.
type chunked[T any] struct {
	chunks []*chunk[T]
	n      int
	shift  uint8  // log2 of the chunk length
	gen    uint64 // this version's generation: chunks tagged with it are private
	owned  bool   // the chunk table is private to this version
}

// chunkShift returns log2 of the chunk length for elements of type T.
func chunkShift[T any]() uint8 {
	var z T
	per := chunkBytes / max(int(unsafe.Sizeof(z)), 1)
	return uint8(max(7, bits.Len(uint(per))-1))
}

// fork returns a view sharing every chunk and the table, writable
// only by copying: the receiver stays intact whatever the fork writes.
func (a *chunked[T]) fork() chunked[T] {
	return chunked[T]{chunks: a.chunks, n: a.n, shift: a.shift, gen: genSeq.Add(1)}
}

// size returns the chunk length.
func (a *chunked[T]) size() int { return 1 << a.shift }

// chunkedOf builds a private array over xs, which it takes over: the
// chunks are slices of xs. An array of one chunk costs one allocation,
// a longer one two (the table and the chunk headers).
func chunkedOf[T any](xs []T) chunked[T] {
	a := chunked[T]{n: len(xs), shift: chunkShift[T](), gen: genSeq.Add(1), owned: true}
	k := (len(xs) + a.size() - 1) >> a.shift
	switch k {
	case 0:
		return a
	case 1:
		one := &struct {
			tab [1]*chunk[T]
			c   chunk[T]
		}{}
		one.c = chunk[T]{gen: a.gen, a: xs[:len(xs):len(xs)]}
		one.tab[0] = &one.c
		a.chunks = one.tab[:]
		return a
	}
	hdrs := make([]chunk[T], k)
	a.chunks = make([]*chunk[T], k)
	for i := range hdrs {
		lo := i << a.shift
		hi := min(lo+a.size(), len(xs))
		hdrs[i] = chunk[T]{gen: a.gen, a: xs[lo:hi:hi]}
		a.chunks[i] = &hdrs[i]
	}
	return a
}

// newChunk returns a private chunk holding a copy of xs, with room for
// a full chunk.
func (a *chunked[T]) newChunk(xs []T) *chunk[T] {
	return &chunk[T]{gen: a.gen, a: append(make([]T, 0, a.size()), xs...)}
}

// len returns the element count.
func (a *chunked[T]) len() int { return a.n }

// at returns element i.
func (a *chunked[T]) at(i int) T { return a.chunks[i>>a.shift].a[i&(1<<a.shift-1)] }

// ref returns a pointer to element i for reading; callers must not
// write through it (use set).
func (a *chunked[T]) ref(i int) *T { return &a.chunks[i>>a.shift].a[i&(1<<a.shift-1)] }

// set writes element i, copying its chunk (and the table) first when
// they are shared.
func (a *chunked[T]) set(i int, v T) {
	*a.slot(i) = v
}

// own makes the chunk table, and chunk k when k is in range, private
// to this version, and returns chunk k (nil past the end).
func (a *chunked[T]) own(k int) *chunk[T] {
	if a.gen == 0 {
		a.gen = genSeq.Add(1)
	}
	if a.shift == 0 { // the zero value, or a fork of it: no chunk yet
		a.shift = chunkShift[T]()
	}
	if !a.owned {
		a.chunks = append(make([]*chunk[T], 0, len(a.chunks)+1), a.chunks...)
		a.owned = true
	}
	if k == len(a.chunks) {
		return nil
	}
	c := a.chunks[k]
	if c.gen != a.gen {
		c = a.newChunk(c.a)
		a.chunks[k] = c
	}
	return c
}

// slot returns a writable pointer to element i (see set).
func (a *chunked[T]) slot(i int) *T {
	return &a.own(i >> a.shift).a[i&(1<<a.shift-1)]
}

// push appends v and returns its index.
func (a *chunked[T]) push(v T) int {
	i := a.n
	c := a.own(i >> a.shift)
	if c == nil {
		c = a.newChunk(nil)
		a.chunks = append(a.chunks, c)
	}
	c.a = append(c.a, v)
	a.n++
	return i
}

// each calls fn on every element in index order until fn returns false.
func (a *chunked[T]) each(fn func(i int, v *T) bool) {
	for k, c := range a.chunks {
		for j := range c.a {
			if !fn(k<<a.shift+j, &c.a[j]) {
				return
			}
		}
	}
}

// slice returns a fresh slice of every element.
func (a *chunked[T]) slice() []T {
	out := make([]T, 0, a.n)
	for _, c := range a.chunks {
		out = append(out, c.a...)
	}
	return out
}

// idList is an ascending component-ID list: base plus a delta (see the
// file comment). It is immutable once published; with returns a new one.
type idList struct {
	base  []int32 // ascending; shared between versions
	gone  []int32 // ascending base IDs removed since the base was folded
	added []int32 // ascending IDs added since, none of them in base
}

// listOf wraps an ascending list as a base with no delta.
func listOf(ids []int32) idList { return idList{base: ids} }

// len returns the number of IDs in the list.
func (l *idList) len() int { return len(l.base) - len(l.gone) + len(l.added) }

// view returns the list as one ascending slice: the base itself when
// there is no delta, else a fresh merge. Callers must not mutate it.
func (l *idList) view() []int32 {
	if len(l.gone) == 0 && len(l.added) == 0 {
		return l.base
	}
	out := make([]int32, 0, l.len())
	gone, added := l.gone, l.added
	for _, id := range l.base {
		if len(gone) > 0 && gone[0] == id {
			gone = gone[1:]
			continue
		}
		for len(added) > 0 && added[0] < id {
			out, added = append(out, added[0]), added[1:]
		}
		out = append(out, id)
	}
	return append(out, added...)
}

// with returns the list with the IDs of remove (all held) taken out and
// those of add (none held) put in. The delta is folded into a new base
// once it outgrows 1/foldDiv of the base.
func (l *idList) with(remove, add []int32) idList {
	if len(remove) == 0 && len(add) == 0 {
		return *l
	}
	out := idList{base: l.base, gone: slices.Clone(l.gone), added: slices.Clone(l.added)}
	for _, id := range remove {
		if _, in := slices.BinarySearch(l.base, id); in {
			out.gone = insertID(out.gone, id)
		} else {
			out.added = deleteID(out.added, id)
		}
	}
	for _, id := range add {
		if _, in := slices.BinarySearch(l.base, id); in {
			out.gone = deleteID(out.gone, id)
		} else {
			out.added = insertID(out.added, id)
		}
	}
	if foldDiv*(len(out.gone)+len(out.added)) > len(out.base) {
		return listOf(slices.Clip(out.view()))
	}
	return out
}

// insertID inserts id into the ascending list s.
func insertID(s []int32, id int32) []int32 {
	i, _ := slices.BinarySearch(s, id)
	return slices.Insert(s, i, id)
}

// deleteID removes id from the ascending list s.
func deleteID(s []int32, id int32) []int32 {
	if i, found := slices.BinarySearch(s, id); found {
		return slices.Delete(s, i, i+1)
	}
	return s
}
