package sym

import "strings"

// Fingerprints replace the canonical-string keys ("strings.Join with \x00
// separators") that the seed engine used to deduplicate facts, relations
// and whole possible worlds. A fingerprint is not an identity — consumers
// keep collision buckets and fall back to exact ID comparison — but it is
// the only thing the hot paths hash.

// FNV-1a parameters, applied word-wise over IDs rather than byte-wise:
// cheaper per element, and the final Mix avalanche compensates for the
// weaker per-step diffusion.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashIDs fingerprints a sequence of IDs (order-sensitive).
func HashIDs(ids []ID) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

// HashString fingerprints a string (FNV-1a, byte-wise); used for relation
// names when combining per-relation fingerprints into an instance
// fingerprint.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Mix finalizes a fingerprint with the splitmix64 avalanche so that
// combining fingerprints commutatively (by addition) still separates
// near-identical sets.
func Mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Tuple is a tuple of interned symbols. A fact's tuple is ground: the
// engine's working form of a fact, which the boundary type rel.Fact
// ([]string) converts to and from at the API edge. A table row's tuple
// may hold variables.
type Tuple []ID

// Fingerprint returns the tuple's order-sensitive 64-bit fingerprint.
func (t Tuple) Fingerprint() uint64 { return HashIDs(t) }

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

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Compare orders tuples canonically (by Compare on components, shorter
// first on prefix ties) — the display order.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := Compare(t[i], u[i]); c != 0 {
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

// VarIDs appends the variables occurring in t to dst, in order of first
// occurrence (dedup via seen).
func (t Tuple) VarIDs(dst []ID, seen map[ID]bool) []ID {
	for _, id := range t {
		if id.IsVar() && !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}

// String renders the tuple as (v1, v2, ...), variables with a leading '?'.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, id := range t {
		parts[i] = id.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Names resolves the tuple to a fresh slice of names.
func (t Tuple) Names() []string {
	out := make([]string, len(t))
	for i, id := range t {
		out[i] = id.Name()
	}
	return out
}
