// Package rel implements complete-information databases (§2.1 of the
// paper): relations of ground facts and instances, i.e. named vectors of
// relations. Relations have set semantics with a canonical sorted order for
// printing and comparison.
//
// Facts are stored as interned-symbol tuples (internal/sym) deduplicated by
// 64-bit fingerprint with exact-comparison collision buckets; the
// string-based Fact type survives only as the API boundary, interned on Add
// and resolved on Facts(). Engine code iterates Tuples() and probes
// Contains() without ever touching a string.
package rel

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"pw/internal/sym"
)

// tupleHash fingerprints a stored tuple. It is a variable so that tests
// can force universal collisions and exercise the bucket fallback.
var tupleHash = sym.HashIDs

// Fact is a ground tuple at the API boundary: a fixed-arity sequence of
// constant names.
type Fact []string

// Key returns a canonical encoding of the fact usable as a map key. The
// separator 0x00 cannot occur in constant names produced by this library.
// Engine paths deduplicate by fingerprint instead; Key survives for
// debugging and display-layer consumers.
func (f Fact) Key() string { return strings.Join(f, "\x00") }

// Intern converts the fact to its interned-symbol form.
func (f Fact) Intern() sym.Tuple {
	t := make(sym.Tuple, len(f))
	for i, c := range f {
		t[i] = sym.Const(c)
	}
	return t
}

// ResolveFact converts an interned tuple back to a boundary Fact.
func ResolveFact(t sym.Tuple) Fact {
	f := make(Fact, len(t))
	for i, id := range t {
		f[i] = id.Name()
	}
	return f
}

// Clone returns a copy of f.
func (f Fact) Clone() Fact {
	c := make(Fact, len(f))
	copy(c, f)
	return c
}

// Equal reports component-wise equality.
func (f Fact) Equal(g Fact) bool {
	if len(f) != len(g) {
		return false
	}
	for i := range f {
		if f[i] != g[i] {
			return false
		}
	}
	return true
}

// String renders the fact as (a, b, c).
func (f Fact) String() string { return "(" + strings.Join(f, ", ") + ")" }

// Compare orders facts lexicographically.
func (f Fact) Compare(g Fact) int {
	n := min(len(f), len(g))
	for i := 0; i < n; i++ {
		if f[i] < g[i] {
			return -1
		}
		if f[i] > g[i] {
			return 1
		}
	}
	switch {
	case len(f) < len(g):
		return -1
	case len(f) > len(g):
		return 1
	}
	return 0
}

// Relation is a named finite set of facts of a fixed arity, stored as
// interned tuples in insertion order with a fingerprint index. The
// index is chained through the tuples: it maps a fingerprint to the
// last tuple inserted with it, and next[i] is the tuple inserted before
// i with the same fingerprint (-1 ends the chain), so a new fact costs
// one map entry and no bucket slice of its own.
//
// The tuples' IDs live back to back in an arena owned by the relation;
// each stored tuple is a window of it whose capacity ends at its last
// ID, so appending to a tuple Tuples returned copies it rather than
// overwriting its neighbour. A full arena is never grown in place: the
// next tuple starts a new, larger chunk, and the windows cut from the
// old one keep it alive unchanged.
type Relation struct {
	Name   string
	Arity  int
	arena  []sym.ID         // the chunk new tuples are copied into
	tuples []sym.Tuple      // windows of arena chunks, in insertion order
	index  map[uint64]int32 // fingerprint -> last index into tuples
	next   []int32          // per tuple: the previous index with its fingerprint, or -1
}

// NewRelation returns an empty relation with the given name and arity.
// Its storage is allocated by the first Insert or Grow.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity}
}

// Grow reserves room for n more facts, so inserting them allocates
// nothing.
func (r *Relation) Grow(n int) {
	if n <= 0 {
		return
	}
	r.tuples = slices.Grow(r.tuples, n)
	r.next = slices.Grow(r.next, n)
	if need := n * r.Arity; cap(r.arena)-len(r.arena) < need {
		r.arena = make([]sym.ID, 0, need)
	}
	index := make(map[uint64]int32, len(r.index)+n)
	maps.Copy(index, r.index)
	r.index = index
}

// Add inserts the fact; it panics on arity mismatch (a programming error,
// not a data error: arities are fixed parameters in the data-complexity
// setting).
func (r *Relation) Add(f Fact) {
	if len(f) != r.Arity {
		panic(fmt.Sprintf("rel: fact %v has arity %d, relation %s expects %d",
			f, len(f), r.Name, r.Arity))
	}
	r.Insert(f.Intern())
}

// AddRow is a convenience wrapper turning its arguments into a fact.
func (r *Relation) AddRow(vals ...string) { r.Add(Fact(vals)) }

// Insert adds an interned tuple, returning whether it was new. The tuple
// is copied into the arena only when actually inserted, so callers may
// pass a reused scratch buffer. Arity must match (checked like Add).
func (r *Relation) Insert(t sym.Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("rel: tuple of arity %d, relation %s expects %d",
			len(t), r.Name, r.Arity))
	}
	h := tupleHash(t)
	head, found := r.find(t, h)
	if found {
		return false
	}
	if r.index == nil {
		r.index = make(map[uint64]int32)
	}
	r.index[h] = int32(len(r.tuples))
	r.next = append(r.next, head)
	r.tuples = append(r.tuples, r.store(t))
	return true
}

// store copies t into the arena and returns its capacity-capped window.
// A chunk too full for t is left to the windows already cut from it;
// the new chunk doubles the old one's capacity.
func (r *Relation) store(t sym.Tuple) sym.Tuple {
	if cap(r.arena)-len(r.arena) < len(t) {
		r.arena = make([]sym.ID, 0, max(2*cap(r.arena), 8*len(t)))
	}
	start := len(r.arena)
	r.arena = append(r.arena, t...)
	return r.arena[start:len(r.arena):len(r.arena)]
}

// Contains reports membership of an interned tuple.
func (r *Relation) Contains(t sym.Tuple) bool {
	_, found := r.find(t, tupleHash(t))
	return found
}

// find walks the chain of fingerprint h for t. It returns the chain's
// head (-1 when h is new) and whether t is on it.
func (r *Relation) find(t sym.Tuple, h uint64) (head int32, found bool) {
	head, ok := r.index[h]
	if !ok {
		return -1, false
	}
	for i := head; i >= 0; i = r.next[i] {
		if r.tuples[i].Equal(t) {
			return head, true
		}
	}
	return head, false
}

// Has reports membership of a boundary fact. Constant names never interned
// anywhere cannot be members, so Has does not grow the intern table.
func (r *Relation) Has(f Fact) bool {
	t := make(sym.Tuple, len(f))
	for i, c := range f {
		id, ok := sym.LookupConst(c)
		if !ok {
			return false
		}
		t[i] = id
	}
	return r.Contains(t)
}

// Len returns the number of facts.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the stored tuples in insertion order. The slice and its
// tuples are owned by the relation; callers must not mutate them.
func (r *Relation) Tuples() []sym.Tuple { return r.tuples }

// Facts returns the facts in canonical sorted order, resolved to names.
func (r *Relation) Facts() []Fact {
	out := make([]Fact, len(r.tuples))
	for i, t := range r.tuples {
		out[i] = ResolveFact(t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns a deep copy, its tuples in one flat arena.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:   r.Name,
		Arity:  r.Arity,
		arena:  make([]sym.ID, 0, len(r.tuples)*r.Arity),
		tuples: make([]sym.Tuple, len(r.tuples)),
		index:  maps.Clone(r.index),
		next:   slices.Clone(r.next),
	}
	for i, t := range r.tuples {
		c.tuples[i] = c.store(t)
	}
	return c
}

// Equal reports set equality of facts (names and arities must also match).
func (r *Relation) Equal(s *Relation) bool {
	if r.Name != s.Name || r.Arity != s.Arity || len(r.tuples) != len(s.tuples) {
		return false
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every fact of r is in s.
func (r *Relation) SubsetOf(s *Relation) bool {
	if len(r.tuples) > len(s.tuples) {
		return false
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// UnionWith adds every fact of s to r. Arities must match.
func (r *Relation) UnionWith(s *Relation) {
	for _, t := range s.tuples {
		r.Insert(t)
	}
}

// ConstIDs appends every constant ID occurring in r to dst (dedup via
// seen) — the active domain in interned form.
func (r *Relation) ConstIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, t := range r.tuples {
		for _, id := range t {
			if !seen[id] {
				seen[id] = true
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// Fingerprint returns a 64-bit fingerprint of the relation: name, arity
// and fact set (insertion-order independent). Equal relations share a
// fingerprint; unequal ones collide only with hash probability, so
// consumers deduplicating by fingerprint keep collision buckets.
func (r *Relation) Fingerprint() uint64 {
	h := sym.Mix(sym.HashString(r.Name) ^ uint64(r.Arity)<<32 ^ uint64(len(r.tuples)))
	for _, t := range r.tuples {
		h += sym.Mix(tupleHash(t))
	}
	return h
}

// String renders the relation as Name(arity){fact, fact, ...} with facts in
// canonical order.
func (r *Relation) String() string {
	fs := r.Facts()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return fmt.Sprintf("%s/%d{%s}", r.Name, r.Arity, strings.Join(parts, " "))
}

// Instance is a complete-information database: an ordered vector of named
// relations (§2.1). Relation names are unique within an instance.
type Instance struct {
	rels  []*Relation
	index map[string]int
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{index: make(map[string]int)}
}

// AddRelation inserts r; it panics if a relation with the same name exists.
func (i *Instance) AddRelation(r *Relation) *Relation {
	if _, ok := i.index[r.Name]; ok {
		panic("rel: duplicate relation " + r.Name)
	}
	i.index[r.Name] = len(i.rels)
	i.rels = append(i.rels, r)
	return r
}

// EnsureRelation returns the relation named name, creating it with the
// given arity if absent.
func (i *Instance) EnsureRelation(name string, arity int) *Relation {
	if r := i.Relation(name); r != nil {
		return r
	}
	return i.AddRelation(NewRelation(name, arity))
}

// Relation returns the relation named name, or nil.
func (i *Instance) Relation(name string) *Relation {
	if idx, ok := i.index[name]; ok {
		return i.rels[idx]
	}
	return nil
}

// Relations returns the relations in insertion order.
func (i *Instance) Relations() []*Relation { return i.rels }

// Clone returns a deep copy.
func (i *Instance) Clone() *Instance {
	c := NewInstance()
	for _, r := range i.rels {
		c.AddRelation(r.Clone())
	}
	return c
}

// Equal reports equality: same relation names (order-insensitive) with
// equal fact sets. Missing relations are treated as empty only if both
// sides omit them, i.e. schemas must match.
func (i *Instance) Equal(j *Instance) bool {
	if len(i.rels) != len(j.rels) {
		return false
	}
	for _, r := range i.rels {
		s := j.Relation(r.Name)
		if s == nil || !r.Equal(s) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every relation of i is a subset of the relation
// of the same name in j. Relations absent from j count as empty.
func (i *Instance) SubsetOf(j *Instance) bool {
	for _, r := range i.rels {
		s := j.Relation(r.Name)
		if s == nil {
			if r.Len() > 0 {
				return false
			}
			continue
		}
		if !r.SubsetOf(s) {
			return false
		}
	}
	return true
}

// Size returns the total number of facts.
func (i *Instance) Size() int {
	n := 0
	for _, r := range i.rels {
		n += r.Len()
	}
	return n
}

// ConstIDs appends every constant ID occurring in the instance to dst
// (dedup via seen).
func (i *Instance) ConstIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, r := range i.rels {
		dst = r.ConstIDs(dst, seen)
	}
	return dst
}

// Fingerprint returns a 64-bit fingerprint of the whole instance,
// relation-order independent. It replaces the canonical string encoding as
// the possible-world deduplication key; equal instances share it, unequal
// ones collide only with hash probability, so world enumeration keeps
// collision buckets and confirms with Equal.
func (i *Instance) Fingerprint() uint64 {
	h := uint64(len(i.rels))
	for _, r := range i.rels {
		h += sym.Mix(r.Fingerprint())
	}
	return h
}

// Key returns a canonical string encoding of the whole instance. Engine
// paths deduplicate by Fingerprint; Key survives for debugging and
// deterministic external comparison.
func (i *Instance) Key() string {
	names := make([]string, len(i.rels))
	for k, r := range i.rels {
		names[k] = r.Name
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		r := i.Relation(n)
		b.WriteString(n)
		b.WriteByte('\x01')
		for _, f := range r.Facts() {
			b.WriteString(f.Key())
			b.WriteByte('\x02')
		}
		b.WriteByte('\x03')
	}
	return b.String()
}

// String renders each relation on its own line.
func (i *Instance) String() string {
	parts := make([]string, len(i.rels))
	for k, r := range i.rels {
		parts[k] = r.String()
	}
	return strings.Join(parts, "\n")
}
