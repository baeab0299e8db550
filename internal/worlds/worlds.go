// Package worlds implements the possible-worlds semantics of Definition
// 2.1: rep(T) for a database of conditioned tables, with exhaustive
// enumeration over the canonical domain Δ ∪ Δ′ (Proposition 2.1). The
// enumerators here are exponential in the number of variables; they are the
// ground truth against which the polynomial and backtracking algorithms of
// internal/decide are validated, and the baseline the benchmarks compare
// against.
//
// Candidate worlds are deduplicated by 64-bit instance fingerprint with an
// exact-equality collision bucket — the seed's canonical-string encoding
// per candidate is gone from this path.
package worlds

import (
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/valuation"
)

// instanceFingerprint is a hook so tests can force universal fingerprint
// collisions and exercise the bucket fallback.
var instanceFingerprint = (*rel.Instance).Fingerprint

// dedup tracks distinct instances by fingerprint, confirming by Equal on
// collision.
type dedup map[uint64][]*rel.Instance

func (s dedup) add(i *rel.Instance) bool {
	fp := instanceFingerprint(i)
	for _, prev := range s[fp] {
		if prev.Equal(i) {
			return false
		}
	}
	s[fp] = append(s[fp], i)
	return true
}

// Each enumerates the distinct possible worlds of d over the given domain
// (pass nil to use the canonical Domain(d)), calling fn for each distinct
// instance; enumeration stops early when fn returns true, and Each then
// returns true. Worlds are deduplicated by instance fingerprint (with an
// equality fallback on collisions), so fn sees each element of rep(d) at
// most once per isomorphism-free domain.
func Each(d *table.Database, domain []sym.ID, fn func(*rel.Instance) bool) bool {
	if domain == nil {
		domain = valuation.Domain(d)
	}
	seen := make(dedup)
	u := d.Universe()
	return valuation.Enumerate(u, domain, func(v valuation.V) bool {
		inst := v.Database(d)
		if inst == nil {
			return false
		}
		if !seen.add(inst) {
			return false
		}
		return fn(inst)
	})
}

// All materializes rep(d) over the canonical domain. Use only on small
// inputs: the size is exponential in the number of variables.
func All(d *table.Database) []*rel.Instance {
	var out []*rel.Instance
	Each(d, nil, func(i *rel.Instance) bool {
		out = append(out, i)
		return false
	})
	return out
}

// Count returns |rep(d)| restricted to the canonical domain (the number of
// distinct worlds over Δ ∪ Δ′; rep itself is infinite whenever a variable
// is unconstrained, so this is the standard finite proxy).
func Count(d *table.Database) int {
	n := 0
	Each(d, nil, func(*rel.Instance) bool {
		n++
		return false
	})
	return n
}

// Member reports whether i ∈ rep(d), by exhaustive valuation search over
// the constants of d and i plus fresh constants. This is the NP witness
// search of Proposition 2.1(2) run deterministically; internal/decide has
// the practical algorithms.
func Member(i *rel.Instance, d *table.Database) bool {
	domain := valuation.Domain(d, i)
	return valuation.Enumerate(d.Universe(), domain, func(v valuation.V) bool {
		w := v.Database(d)
		return w != nil && w.Equal(i)
	})
}

// Possible reports whether some world of d contains every fact of p
// (the unbounded possibility question POSS(∗,−) by brute force).
func Possible(p *rel.Instance, d *table.Database) bool {
	domain := valuation.Domain(d, p)
	return valuation.Enumerate(d.Universe(), domain, func(v valuation.V) bool {
		w := v.Database(d)
		return w != nil && p.SubsetOf(w)
	})
}

// Certain reports whether every world of d contains every fact of p
// (CERT(∗,−) by brute force over the canonical domain; correctness over
// all valuations follows from genericity, Proposition 2.1).
func Certain(p *rel.Instance, d *table.Database) bool {
	domain := valuation.Domain(d, p)
	violated := valuation.Enumerate(d.Universe(), domain, func(v valuation.V) bool {
		w := v.Database(d)
		return w != nil && !p.SubsetOf(w)
	})
	return !violated
}
