// Package sym interns the symbols of the possible-worlds framework —
// constants drawn from 𝒟 and variables (nulls) drawn from the disjoint set
// 𝒱 (§2.2) — into dense uint32 IDs. Every hot path of the engine (valuation
// search, fact storage, world deduplication, condition closure) runs on IDs
// and 64-bit fingerprints; strings exist only at the API boundary, where
// they are interned on entry and resolved on display.
//
// The intern table is process-global and append-only: an ID, once handed
// out, resolves to the same name forever, so IDs may be compared, hashed
// and stored freely. The var/const partition is encoded in the ID itself
// (the top bit), keeping the two namespaces of the paper disjoint by
// construction.
//
// Interning takes a lock; resolving does not. Each namespace publishes
// its name table through an atomic pointer after every append, so Name —
// and with it Compare, the display order every sort and printer uses —
// is one atomic load and an index, never a lock acquisition.
package sym

import (
	"slices"
	"sync"
	"sync/atomic"
)

// ID is an interned symbol: a constant or variable name plus its kind.
// Constants occupy the IDs without VarBit, variables the IDs with it; the
// low 31 bits are a dense serial within the kind's namespace, assigned in
// interning order.
type ID uint32

// VarBit distinguishes variables from constants inside an ID.
const VarBit ID = 1 << 31

// None is a reserved sentinel: no interned symbol ever receives it.
const None ID = 1<<32 - 1

// space is one append-only intern namespace. ids and names are written
// under mu; published is the name table as of the last intern, read
// without a lock. Appends never overwrite an element a published table
// covers (a grown table copies to a new array), so a reader indexing its
// snapshot never races a writer.
type space struct {
	ids       map[string]uint32
	names     []string
	published atomic.Pointer[[]string]
}

func (s *space) intern(name string) uint32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := uint32(len(s.names))
	if id >= uint32(VarBit)-1 {
		panic("sym: namespace exhausted")
	}
	s.ids[name] = id
	s.names = append(s.names, name)
	names := s.names
	s.published.Store(&names)
	return id
}

// name resolves a serial handed out by intern. The ID reached the
// caller after intern published it, so the loaded table covers it.
func (s *space) name(serial int) string { return (*s.published.Load())[serial] }

var (
	mu     sync.RWMutex
	consts = space{ids: make(map[string]uint32)}
	vars   = space{ids: make(map[string]uint32)}
)

func init() {
	// Serial 0 of each namespace is the empty name, so the zero values of
	// ID-backed types denote the empty-named constant, as value.Value
	// documents.
	Const("")
	Var("")
}

// Const interns name as a constant and returns its ID.
func Const(name string) ID {
	mu.RLock()
	id, ok := consts.ids[name]
	mu.RUnlock()
	if ok {
		return ID(id)
	}
	mu.Lock()
	id = consts.intern(name)
	mu.Unlock()
	return ID(id)
}

// AppendConsts appends to dst the constant IDs of names, in order,
// interning those never seen. The names already interned are resolved
// under one read lock, allocating nothing but dst's growth; each new
// one is interned through Const as a copy, so the table never holds a
// slice of the caller's bytes.
func AppendConsts(dst []ID, names [][]byte) []ID {
	base := len(dst)
	missed := false
	mu.RLock()
	for _, name := range names {
		id, ok := consts.ids[string(name)]
		if !ok {
			id, missed = uint32(None), true
		}
		dst = append(dst, ID(id))
	}
	mu.RUnlock()
	if missed {
		for i, name := range names {
			if dst[base+i] == None {
				dst[base+i] = Const(string(name))
			}
		}
	}
	return dst
}

// Var interns name as a variable and returns its ID.
func Var(name string) ID {
	mu.RLock()
	id, ok := vars.ids[name]
	mu.RUnlock()
	if ok {
		return ID(id) | VarBit
	}
	mu.Lock()
	id = vars.intern(name)
	mu.Unlock()
	return ID(id) | VarBit
}

// LookupConst returns the ID of an already-interned constant. ok is false
// when the name has never been interned — useful for negative membership
// probes that must not grow the intern table.
func LookupConst(name string) (ID, bool) {
	mu.RLock()
	id, ok := consts.ids[name]
	mu.RUnlock()
	return ID(id), ok
}

// IsVar reports whether id names a variable.
func (id ID) IsVar() bool { return id&VarBit != 0 }

// Serial returns the dense index of id within its namespace.
func (id ID) Serial() int { return int(id &^ VarBit) }

// Name resolves id back to its interned name. It takes no lock.
func (id ID) Name() string {
	if id.IsVar() {
		return vars.name(id.Serial())
	}
	return consts.name(id.Serial())
}

// String renders constants bare and variables with a leading '?', matching
// the .pw text format.
func (id ID) String() string {
	if id.IsVar() {
		return "?" + id.Name()
	}
	return id.Name()
}

// Compare orders IDs canonically: constants before variables, then by
// name. This is the display order of the engine; hot paths compare raw IDs
// for equality instead.
func Compare(a, b ID) int {
	switch {
	case !a.IsVar() && b.IsVar():
		return -1
	case a.IsVar() && !b.IsVar():
		return 1
	case a == b:
		return 0
	}
	an, bn := a.Name(), b.Name()
	switch {
	case an < bn:
		return -1
	case an > bn:
		return 1
	}
	return 0
}

// SortByName sorts ids in canonical order (constants first, then by name).
func SortByName(ids []ID) { slices.SortFunc(ids, Compare) }

// Names sorts ids by name (SortByName, in place) and returns their names
// in that order: the display form of a set of symbols collected as IDs.
func Names(ids []ID) []string {
	SortByName(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.Name()
	}
	return out
}

// ConstCount returns the number of interned constants (diagnostics).
func ConstCount() int { return len(*consts.published.Load()) }
