// Package obs is the engine's zero-dependency observability core:
// per-request cost accounting (Cost), a lightweight span/trace API
// (Trace, Span), and process-wide metrics — atomic counters, gauges
// and fixed-bucket histograms — exposed in the Prometheus text format
// (Registry).
//
// The design constraint throughout is that instrumentation must be
// cheap enough to leave compiled into the hot layers: every Cost and
// Span method is nil-receiver safe, so the engine threads optional
// sinks through unconditionally and an untraced call path pays one
// predictable nil check per record point; Registry metrics are single
// atomic operations with pre-resolved handles on the hot paths.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
)

// CostKind names one per-request cost counter. The counters form the
// engine's structured cost model: each hot layer (parse, wsd.Normalize,
// wsd.ApplyUpdate, wsdalg's Eval/Apply, decide, the server's cache and
// admission layers) records the quantities its asymptotics depend on,
// so a slow request explains itself without a profiler.
type CostKind int

const (
	// ParseBytes counts input bytes consumed by the parser.
	ParseBytes CostKind = iota

	// NormComponentsMerged counts components merged by Normalize's
	// dependent-component cross products (incl. incremental renorm).
	NormComponentsMerged
	// NormVerticalSplits counts tuple-level components rewritten into
	// attribute-level templates by the counting-certificate rule.
	NormVerticalSplits
	// NormCertainFolds counts single-alternative components folded into
	// the certain component.
	NormCertainFolds
	// NormOverlapTests counts the overlap tests Normalize's closure runs
	// between a template and a peer sharing its bucket: template pairs
	// (attrOverlap) and stored facts (contains).
	NormOverlapTests

	// UpdateTouchedComponents counts components rebuilt by an update's
	// incremental renormalization (the op's own groups plus the
	// overlap-closure pulls); UpdateSurvivorComponents counts the
	// components that passed through by value, sharing their
	// alternative lists with the pre-update snapshot.
	UpdateTouchedComponents
	UpdateSurvivorComponents
	// UpdateCOWUnshares counts copy-on-write unshare events (the fact
	// table or the component headers being deep-copied on first write).
	UpdateCOWUnshares

	// EvalComponents is the input decomposition's component count seen
	// by a wsdalg evaluation (the components visited to build choice
	// units).
	EvalComponents
	// EvalParts counts decomposed-relation parts built while evaluating
	// the algebra expression tree.
	EvalParts
	// EvalAltsTabulated counts joint alternatives enumerated by the
	// odometer (join tabulation and final component assembly).
	EvalAltsTabulated
	// EvalMergeSpaceMax is the largest joint alternative space any
	// single assembly needed (max semantics — record via Max). The
	// headroom against wsd.MaxMergeAlts is the distance to ErrEntangled.
	EvalMergeSpaceMax
	// EvalScanComps counts input components read by scans: the
	// relation's posting, or with a σ probe the constant's posting.
	EvalScanComps

	// DecideShards counts enumeration shards spawned by the parallel
	// valuation searches; DecideCancels counts searches that were
	// cancelled early (a witness in one shard aborting the rest);
	// DecideValuations counts valuations visited; DecideWitnessDepth is
	// the visit count at which the (first) witness was found (max
	// semantics). DecideMatchTests counts the row↔fact tests the
	// matching builds and the search candidate lists run: the rows a
	// fact's pattern-index lookup yields, not every (row, fact) pair.
	DecideShards
	DecideCancels
	DecideValuations
	DecideWitnessDepth
	DecideMatchTests

	// CacheHits/CacheMisses count answer-cache outcomes for this
	// request; CoalescedWaits counts evaluations this request
	// piggybacked on instead of running; SemWaitNanos is time spent
	// queued on the admission semaphore; PlanReused counts evaluations
	// that ran a planning decision the prepared query kept for the same
	// database version instead of planning again.
	CacheHits
	CacheMisses
	CoalescedWaits
	SemWaitNanos
	PlanReused

	numCostKinds
)

// costNames is the canonical counter naming scheme (snake_case, layer
// prefix) used in trace JSON, slow-query log lines, and DESIGN.md.
var costNames = [numCostKinds]string{
	"parse_bytes",
	"norm_components_merged",
	"norm_vertical_splits",
	"norm_certain_folds",
	"norm_overlap_tests",
	"update_touched_components",
	"update_survivor_components",
	"update_cow_unshares",
	"eval_components",
	"eval_parts",
	"eval_alts_tabulated",
	"eval_merge_space_max",
	"eval_scan_comps",
	"decide_shards",
	"decide_cancels",
	"decide_valuations",
	"decide_witness_depth",
	"decide_match_tests",
	"cache_hits",
	"cache_misses",
	"coalesced_waits",
	"sem_wait_ns",
	"plan_reused",
}

// String returns the counter's canonical name.
func (k CostKind) String() string {
	if k < 0 || k >= numCostKinds {
		return fmt.Sprintf("cost(%d)", int(k))
	}
	return costNames[k]
}

// Cost is one request's cost-accounting sink: a fixed array of atomic
// counters, one per CostKind. All methods are safe on a nil *Cost (they
// record nothing and read zero), so instrumented code threads a
// possibly-nil sink without branching at every call site. Counters are
// int64 and atomic: a request's evaluation may fan out across worker
// goroutines that record concurrently.
type Cost struct {
	c [numCostKinds]atomic.Int64
}

// NewCost returns a zeroed cost sink.
func NewCost() *Cost { return &Cost{} }

// Add adds n to the counter and returns its new value. On a nil
// receiver it records nothing and returns 0.
func (c *Cost) Add(k CostKind, n int64) int64 {
	if c == nil {
		return 0
	}
	return c.c[k].Add(n)
}

// Max raises the counter to n if n is larger (for high-water-mark
// counters like EvalMergeSpaceMax and DecideWitnessDepth).
func (c *Cost) Max(k CostKind, n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.c[k].Load()
		if n <= cur || c.c[k].CompareAndSwap(cur, n) {
			return
		}
	}
}

// Get reads one counter (0 on a nil receiver).
func (c *Cost) Get(k CostKind) int64 {
	if c == nil {
		return 0
	}
	return c.c[k].Load()
}

// ParseReader wraps r so every byte read from it counts toward
// ParseBytes, the parse-side contribution to a request's cost profile
// (parse time is linear in it). Counting at the reader covers every
// dispatch path of the parser without threading the sink through the
// grammar. On a nil receiver it returns r itself.
func (c *Cost) ParseReader(r io.Reader) io.Reader {
	if c == nil {
		return r
	}
	return parseReader{r: r, c: c}
}

// parseReader records every byte read into its cost sink.
type parseReader struct {
	r io.Reader
	c *Cost
}

func (pr parseReader) Read(p []byte) (int, error) {
	n, err := pr.r.Read(p)
	if n > 0 {
		pr.c.Add(ParseBytes, int64(n))
	}
	return n, err
}

// Counters snapshots the nonzero counters as a name → value map — the
// shape embedded in traced JSON responses.
func (c *Cost) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	m := make(map[string]int64)
	for k := CostKind(0); k < numCostKinds; k++ {
		if v := c.c[k].Load(); v != 0 {
			m[costNames[k]] = v
		}
	}
	return m
}

// CostSnapshot is a point-in-time copy of a Cost's counters: a plain
// value with no atomics, cheap to store (the flight recorder keeps one
// per ring slot) and to diff (plan nodes subtract two snapshots to
// attribute Normalize work).
type CostSnapshot [numCostKinds]int64

// Get reads one counter from the snapshot.
func (s CostSnapshot) Get(k CostKind) int64 {
	if k < 0 || k >= numCostKinds {
		return 0
	}
	return s[k]
}

// Counters converts the snapshot to the name → value map shape used in
// JSON responses, dropping zero counters. Nil when nothing fired.
func (s CostSnapshot) Counters() map[string]int64 {
	var m map[string]int64
	for k := CostKind(0); k < numCostKinds; k++ {
		if s[k] != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[costNames[k]] = s[k]
		}
	}
	return m
}

// Snapshot copies the current counter values (zero value on a nil
// receiver).
func (c *Cost) Snapshot() CostSnapshot {
	var s CostSnapshot
	if c == nil {
		return s
	}
	for k := CostKind(0); k < numCostKinds; k++ {
		s[k] = c.c[k].Load()
	}
	return s
}

// AddSnapshot folds a snapshot into the sink, respecting each counter's
// semantics: high-water-mark kinds (EvalMergeSpaceMax,
// DecideWitnessDepth) merge via Max, everything else is additive. This
// is how an evaluation run against a private Cost (so its counters can
// be reported exactly, e.g. in a Plan) is reconciled into the
// request-wide sink afterwards.
func (c *Cost) AddSnapshot(s CostSnapshot) {
	if c == nil {
		return
	}
	for k := CostKind(0); k < numCostKinds; k++ {
		if s[k] == 0 {
			continue
		}
		switch k {
		case EvalMergeSpaceMax, DecideWitnessDepth:
			c.Max(k, s[k])
		default:
			c.Add(k, s[k])
		}
	}
}

// String renders the nonzero counters as "name=value ..." in name
// order — the slow-query-log shape. Empty string when nothing fired.
func (c *Cost) String() string {
	m := c.Counters()
	if len(m) == 0 {
		return ""
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, m[n])
	}
	return b.String()
}
