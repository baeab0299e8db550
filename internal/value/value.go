// Package value defines the elementary symbols of the possible-worlds
// framework: constants drawn from a countably infinite set 𝒟 and variables
// (nulls) drawn from a disjoint set 𝒱, plus tuples over them.
//
// The paper (§2.2) assumes 𝒟 ∩ 𝒱 = ∅. We enforce the distinction in the
// type: a Value wraps an interned symbol ID (internal/sym) whose kind bit
// keeps the namespaces disjoint, so "x" the constant and "x" the variable
// are different values. A Value is four bytes and compares with ==; names
// are resolved only at the display boundary.
package value

import (
	"fmt"
	"strings"

	"pw/internal/sym"
)

// Value is a constant or a variable (null). The zero Value is the constant
// with the empty name; use Const and Var to build meaningful values.
type Value struct {
	id sym.ID
}

// Const returns the constant named name.
func Const(name string) Value { return Value{id: sym.Const(name)} }

// Var returns the variable (null) named name.
func Var(name string) Value { return Value{id: sym.Var(name)} }

// Of wraps an interned symbol ID as a Value.
func Of(id sym.ID) Value { return Value{id: id} }

// ID returns the value's interned symbol.
func (v Value) ID() sym.ID { return v.id }

// Name returns the symbol's name without kind decoration.
func (v Value) Name() string { return v.id.Name() }

// IsVar reports whether v is a variable.
func (v Value) IsVar() bool { return v.id.IsVar() }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return !v.id.IsVar() }

// String renders constants bare and variables with a leading '?', matching
// the .pw text format of internal/parse.
func (v Value) String() string { return v.id.String() }

// Compare orders values canonically: constants before variables, then by
// name. It returns -1, 0, or +1.
func (v Value) Compare(w Value) int { return sym.Compare(v.id, w.id) }

// Subst is a substitution: a map from variables (as Values, so the kind
// bit disambiguates for free) to replacement values. Constants are never
// keys.
type Subst map[Value]Value

// Tuple is a fixed-arity sequence of values: one row of a table before any
// condition is attached.
type Tuple []Value

// NewTuple copies vs into a fresh tuple.
func NewTuple(vs ...Value) Tuple {
	t := make(Tuple, len(vs))
	copy(t, vs)
	return t
}

// Consts builds a tuple of constants from names.
func Consts(names ...string) Tuple {
	t := make(Tuple, len(names))
	for i, n := range names {
		t[i] = Const(n)
	}
	return t
}

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Ground reports whether the tuple contains no variables.
func (t Tuple) Ground() bool {
	for _, v := range t {
		if v.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the names of the variables occurring in t to dst, in order
// of first occurrence, without duplicates already present in seen. It
// returns the extended slice. Pass a shared seen map when accumulating over
// many tuples.
func (t Tuple) Vars(dst []string, seen map[string]bool) []string {
	for _, v := range t {
		if v.IsVar() && !seen[v.Name()] {
			seen[v.Name()] = true
			dst = append(dst, v.Name())
		}
	}
	return dst
}

// VarIDs appends the IDs of the variables occurring in t to dst, in order
// of first occurrence (dedup via seen).
func (t Tuple) VarIDs(dst []sym.ID, seen map[sym.ID]bool) []sym.ID {
	for _, v := range t {
		if v.IsVar() && !seen[v.id] {
			seen[v.id] = true
			dst = append(dst, v.id)
		}
	}
	return dst
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Compare orders tuples lexicographically (shorter first on prefix ties).
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// FreshNames returns n constant names with the given prefix.
func FreshNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}
