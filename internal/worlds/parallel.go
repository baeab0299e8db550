package worlds

import (
	"runtime"
	"sync/atomic"

	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/valuation"
)

// Options configures the parallel world enumerators. The sequential
// package functions (All, Count, Member, …) remain the deterministic
// ground truth; Options trades their visit order for wall-clock speed
// while the determinism contract keeps the *sets* identical: every world
// of rep(d) appears exactly once at any worker count.
type Options struct {
	// Workers is the goroutine budget. 0 means GOMAXPROCS; 1 dispatches
	// to the sequential enumerators bit-for-bit.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// All materializes rep(d) over the canonical domain like the package-level
// All, but splits the valuation space into balanced prefix shards: each
// worker deduplicates its shard locally by instance fingerprint (with
// exact-equality collision buckets), and the shard sets are then merged in
// shard order through a global dedup pass with the same exact-equality
// confirmation. Workers = 1 (and spaces too small to shard) run the
// sequential enumeration, preserving its world order bit-for-bit; larger
// worker counts return the same set in shard-merge order.
func (o Options) All(d *table.Database) []*rel.Instance {
	domain := valuation.Domain(d)
	u := d.Universe()
	w := o.workers()
	shards, ok := valuation.Shards(u, domain, w*valuation.ShardsPerWorker)
	if w <= 1 || !ok {
		var out []*rel.Instance
		Each(d, domain, func(i *rel.Instance) bool {
			out = append(out, i)
			return false
		})
		return out
	}
	perShard := make([][]*rel.Instance, len(shards))
	valuation.ParallelAny(w, len(shards), func(s int, _ *atomic.Bool) bool {
		local := make(dedup)
		valuation.EnumerateRange(u, domain, shards[s], func(v valuation.V) bool {
			inst := v.Database(d)
			if inst != nil && local.add(inst) {
				perShard[s] = append(perShard[s], inst)
			}
			return false
		})
		return false
	})
	// Merge: shards overlap only across prefix boundaries, so the global
	// pass re-confirms by fingerprint bucket + Equal and keeps the first
	// occurrence in shard order.
	seen := make(dedup)
	var out []*rel.Instance
	for _, shard := range perShard {
		for _, inst := range shard {
			if seen.add(inst) {
				out = append(out, inst)
			}
		}
	}
	return out
}

// Count returns |rep(d)| over the canonical domain, materializing shards
// in parallel.
func (o Options) Count(d *table.Database) int { return len(o.All(d)) }
