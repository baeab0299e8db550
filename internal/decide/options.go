package decide

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pw/internal/obs"
	"pw/internal/sym"
	"pw/internal/valuation"
)

// Options configures how the decision procedures search, without changing
// what they decide: the determinism contract guarantees identical results
// (booleans, world sets, answer sets) at every worker count, even though
// internal visit order differs under parallelism.
type Options struct {
	// Workers is the goroutine budget for the exponential valuation
	// searches of the NP/coNP/Π₂ᵖ cells and for their per-fact and
	// per-candidate fan-outs. 0 means GOMAXPROCS; 1 reproduces the
	// sequential engine bit-for-bit (visit order, witness choice).
	Workers int

	// Cost, when non-nil, receives the search's cost counters: shards
	// spawned, early cancellations, valuations visited, the visit count
	// at which the first witness was found, and the row↔fact tests of
	// the matching builds and search candidate lists. Counting is
	// attached only when a sink is present, so the untraced path is
	// unchanged.
	Cost *obs.Cost
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// inner is the options for decision sub-procedures nested inside a
// parallel enumeration (the membership tests of the Π₂ᵖ containment
// cells): sequential, so the outer fan-out owns the pool. The cost sink
// carries over — nested valuation visits are part of the request.
func (o Options) inner() Options { return Options{Workers: 1, Cost: o.Cost} }

// enumerate runs the sharded canonical valuation search with the
// options' cost sink attached: the enumerator records shards and
// cancellations, and a wrapper counts valuations visited and the
// witness depth. Without a sink the predicate runs unwrapped.
func (o Options) enumerate(u *sym.Universe, base []sym.ID, prefix string, fn func(valuation.V) bool) bool {
	if c := o.Cost; c != nil {
		inner := fn
		fn = func(v valuation.V) bool {
			n := c.Add(obs.DecideValuations, 1)
			if inner(v) {
				c.Max(obs.DecideWitnessDepth, n)
				return true
			}
			return false
		}
	}
	return valuation.EnumerateCanonicalSharded(u, base, prefix, o.workers(), o.Cost, fn)
}

// errOnce retains the first error any worker reports.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// anyIndex reports whether check(i) holds for some i in [0, n): the
// per-fact fan-out of the coNP cells of UNIQ and CERT, on the shared
// pool with cancellation — the first hit cancels the remaining checks.
// With workers <= 1 it preserves the sequential engine's first-hit
// visit order. check must be safe for concurrent calls.
func anyIndex(workers, n int, check func(int) bool) bool {
	return valuation.ParallelAny(workers, n, func(i int, _ *atomic.Bool) bool {
		return check(i)
	})
}

// eachIndex runs body(i) for every i in [0, n) across the pool with no
// early exit and dynamic load balancing (per-index costs vary wildly in
// the equality-logic sweeps). body must be safe for concurrent calls on
// distinct indices.
func eachIndex(workers, n int, body func(int)) {
	valuation.ParallelAny(workers, n, func(i int, _ *atomic.Bool) bool {
		body(i)
		return false
	})
}
