// Sharded enumeration: the d^k odometer space (Shards, EnumerateRange —
// the world materialization of internal/worlds runs on them) and the
// restricted-growth canonical space (EnumerateCanonicalSharded, the
// parallel EnumerateCanonical) are split into balanced prefix shards; a
// worker pool claims shards from an atomic cursor and enumerates each
// independently, and a shared cancellation flag lets the first witness in
// any shard abort all others — exactly the structure the decision
// procedures need for their existential searches (and, negated, for their
// universal ones).
//
// The determinism contract of the engine rests on a genericity argument,
// not on visit order: every consumer predicate is order-independent (the
// existence of a satisfying valuation does not depend on which shard finds
// it first), so results are identical across worker counts even though
// internal visit order is not. Workers <= 1 dispatches to the sequential
// enumerators, reproducing their visit order bit-for-bit.
package valuation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pw/internal/obs"
	"pw/internal/sym"
)

// MinShardedSpace is the smallest search-space size worth sharding:
// below it, goroutine startup and shard bookkeeping dominate and the
// sharded enumerators fall back to their sequential counterparts.
// Measured on full-space sweeps (the universal, no-early-exit worst
// case), the workers=8 overhead over sequential was +94% at a 4096
// space and still +25% at 32k; early-exit existential searches
// amortize better, so the cutoff sits at the point where even the
// worst case is within noise of sequential rather than lower. Tests
// lower it to force the parallel machinery onto small inputs.
var MinShardedSpace = 32768

// ShardsPerWorker oversubscribes shards relative to workers so that
// uneven shard costs (early-exit predicates, condition pruning) still
// balance across the pool. Other shard consumers (internal/worlds) use
// the same factor for consistent granularity.
const ShardsPerWorker = 8

// Range is a contiguous slice [Lo, Hi) of the odometer space of
// Enumerate: position n is the valuation whose slot indices are the
// base-|domain| digits of n, most-significant slot first.
type Range struct{ Lo, Hi int }

// maxInt is the saturation cap for space-size arithmetic (platform int,
// so 32-bit builds stay correct).
const maxInt = int(^uint(0) >> 1)

// pow returns d^k saturating at cap, with ok=false on saturation.
func pow(d, k, cap int) (int, bool) {
	n := 1
	for i := 0; i < k; i++ {
		if d != 0 && n > cap/d {
			return cap, false
		}
		n *= d
	}
	return n, true
}

// Shards splits the odometer space over u and domain into at most n
// balanced contiguous ranges. ok is false when the space is degenerate,
// too small to be worth sharding (MinShardedSpace), or overflows int —
// callers should then use the sequential enumerator.
func Shards(u *sym.Universe, domain []sym.ID, n int) ([]Range, bool) {
	k := u.Len()
	if n <= 1 || k == 0 || len(domain) == 0 {
		return nil, false
	}
	total, ok := pow(len(domain), k, maxInt)
	if !ok || total < MinShardedSpace {
		return nil, false
	}
	if n > total {
		n = total
	}
	size := (total + n - 1) / n
	out := make([]Range, 0, n)
	for lo := 0; lo < total; lo += size {
		out = append(out, Range{Lo: lo, Hi: min(lo+size, total)})
	}
	return out, true
}

// EnumerateRange enumerates the valuations of one Range in odometer
// order, with the same early-exit contract as Enumerate. The valuation
// passed to fn is reused between calls; clone it to retain it.
func EnumerateRange(u *sym.Universe, domain []sym.ID, r Range, fn func(V) bool) bool {
	v := Make(u)
	idx := make([]int, u.Len())
	k, d := len(idx), len(domain)
	x := r.Lo
	for i := k - 1; i >= 0; i-- {
		idx[i] = x % d
		x /= d
	}
	for n := r.Lo; n < r.Hi; n++ {
		for i := 0; i < k; i++ {
			v.Vals[i] = domain[idx[i]]
		}
		if fn(v) {
			return true
		}
		for i := k - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < d {
				break
			}
			idx[i] = 0
		}
	}
	return false
}

// ParallelAny is the engine's one work-stealing pool with cancellation:
// workers goroutines claim task indices [0, n) from an atomic cursor;
// the first task returning true sets the shared stop flag, which both
// halts claiming and is handed to every task so long-running ones
// (shard enumerations) can poll it. Returns whether any task returned
// true. Tasks run concurrently — they must synchronize shared state.
// With workers <= 1 tasks run sequentially in index order (stopping at
// the first true), preserving deterministic visit order for callers
// that need it.
//
// Every parallel fan-out of the engine — sharded enumeration here, the
// per-fact coNP checks and answer sweeps in internal/decide, the world
// materialization in internal/worlds — runs on this primitive, so the
// claim/stop protocol exists exactly once.
func ParallelAny(workers, n int, task func(i int, stop *atomic.Bool) bool) bool {
	if workers > n {
		workers = n
	}
	var stop atomic.Bool
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop.Load() {
				break
			}
			if task(i, &stop) {
				return true
			}
		}
		return false
	}
	var next atomic.Int64
	var found atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if task(i, &stop) {
					found.Store(true)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return found.Load()
}

// canonPrefix is a partial canonical valuation: the first len(vals) slots
// plus the number of fresh constants introduced so far.
type canonPrefix struct {
	vals []sym.ID
	used int
}

// expandCanon extends every prefix by one slot, preserving the visit
// order of EnumerateCanonical (base constants first, then fresh constants
// in first-use order under the restricted-growth constraint).
func expandCanon(prefixes []canonPrefix, base, fresh []sym.ID, k int) []canonPrefix {
	out := make([]canonPrefix, 0, len(prefixes)*(len(base)+1))
	for _, p := range prefixes {
		for _, c := range base {
			vals := append(append(make([]sym.ID, 0, len(p.vals)+1), p.vals...), c)
			out = append(out, canonPrefix{vals: vals, used: p.used})
		}
		for j := 0; j <= p.used && j < k; j++ {
			vals := append(append(make([]sym.ID, 0, len(p.vals)+1), p.vals...), fresh[j])
			used := p.used
			if j == p.used {
				used++
			}
			out = append(out, canonPrefix{vals: vals, used: used})
		}
	}
	return out
}

// canonCount returns the number of canonical valuations over k slots and
// b base constants, saturating at cap. memo[used] holds the count for the
// current suffix length; slot i offers b+used choices that keep `used`
// unchanged plus one introduction (while used < k).
func canonCount(b, k, cap int) int {
	memo := make([]int, k+2)
	for used := range memo {
		memo[used] = 1
	}
	for i := k - 1; i >= 0; i-- {
		next := make([]int, k+2)
		for used := 0; used <= k; used++ {
			stay := b + used
			intro := 0
			if used < k {
				intro = memo[used+1]
			} else {
				stay = b + k
			}
			n := satMul(stay, memo[used], cap)
			next[used] = satAdd(n, intro, cap)
		}
		memo = next
	}
	return memo[0]
}

func satMul(a, b, cap int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > cap/b {
		return cap
	}
	return a * b
}

func satAdd(a, b, cap int) int {
	if a > cap-b {
		return cap
	}
	return a + b
}

// canonSuffix runs the EnumerateCanonical recursion over slots [i, k)
// with a precomputed fresh-constant pool and a shared stop flag.
func canonSuffix(v V, base, fresh []sym.ID, i, used, k int, stop *atomic.Bool, fn func(V) bool) bool {
	if stop.Load() {
		return false
	}
	if i == k {
		return fn(v)
	}
	for _, c := range base {
		v.Vals[i] = c
		if canonSuffix(v, base, fresh, i+1, used, k, stop, fn) {
			return true
		}
	}
	for j := 0; j <= used && j < k; j++ {
		v.Vals[i] = fresh[j]
		next := used
		if j == used {
			next++
		}
		if canonSuffix(v, base, fresh, i+1, next, k, stop, fn) {
			return true
		}
	}
	return false
}

// EnumerateCanonicalSharded is the parallel EnumerateCanonical: the
// restricted-growth space is split into prefix shards (assignments of the
// first few slots), and workers run the suffix recursion of each shard
// with shared cancellation. The fresh-constant names prefix0, prefix1, …
// are interned up front, so naming is identical to the sequential
// enumerator regardless of which shard first uses a fresh constant.
//
// fn may be called from multiple goroutines concurrently. Workers <= 1
// and small spaces dispatch to the sequential EnumerateCanonical. The
// cost sink c (nil: no accounting) records the number of prefix shards
// spawned (1 when the search dispatched to the sequential enumerator)
// and one cancellation event when a witness aborted the remaining
// shards.
func EnumerateCanonicalSharded(u *sym.Universe, base []sym.ID, prefix string, workers int, c *obs.Cost, fn func(V) bool) bool {
	k := u.Len()
	if workers <= 1 || k < 2 || canonCount(len(base), k, MinShardedSpace) < MinShardedSpace {
		c.Add(obs.DecideShards, 1)
		return EnumerateCanonical(u, base, prefix, fn)
	}
	fresh := make([]sym.ID, k)
	for j := range fresh {
		fresh[j] = sym.Const(fmt.Sprintf("%s%d", prefix, j))
	}
	target := workers * ShardsPerWorker
	prefixes := []canonPrefix{{}}
	depth := 0
	for depth < k-1 && len(prefixes) < target {
		prefixes = expandCanon(prefixes, base, fresh, k)
		depth++
	}
	c.Add(obs.DecideShards, int64(len(prefixes)))
	found := ParallelAny(workers, len(prefixes), func(s int, stop *atomic.Bool) bool {
		v := Make(u)
		p := prefixes[s]
		copy(v.Vals, p.vals)
		return canonSuffix(v, base, fresh, depth, p.used, k, stop, fn)
	})
	if found {
		c.Add(obs.DecideCancels, 1)
	}
	return found
}
