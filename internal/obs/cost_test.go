package obs

import (
	"reflect"
	"sync"
	"testing"
)

// A nil *Cost must be a black hole: every method records nothing,
// reads zero, and never panics — that is what lets the engine thread
// possibly-nil sinks without branching.
func TestCostNilReceiver(t *testing.T) {
	var c *Cost
	if got := c.Add(EvalParts, 7); got != 0 {
		t.Errorf("nil.Add = %d, want 0", got)
	}
	c.Max(EvalMergeSpaceMax, 99)
	if got := c.Get(EvalMergeSpaceMax); got != 0 {
		t.Errorf("nil.Get = %d, want 0", got)
	}
	if got := c.Counters(); got != nil {
		t.Errorf("nil.Counters = %v, want nil", got)
	}
	if got := c.String(); got != "" {
		t.Errorf("nil.String = %q, want empty", got)
	}
}

func TestCostAddMaxGet(t *testing.T) {
	c := NewCost()
	if got := c.Add(ParseBytes, 10); got != 10 {
		t.Errorf("Add returned %d, want 10", got)
	}
	if got := c.Add(ParseBytes, 5); got != 15 {
		t.Errorf("second Add returned %d, want 15", got)
	}
	c.Max(DecideWitnessDepth, 4)
	c.Max(DecideWitnessDepth, 2) // lower: must not regress
	c.Max(DecideWitnessDepth, 9)
	if got := c.Get(DecideWitnessDepth); got != 9 {
		t.Errorf("Max high-water mark = %d, want 9", got)
	}
}

func TestCostCountersAndString(t *testing.T) {
	c := NewCost()
	c.Add(CacheMisses, 1)
	c.Add(EvalComponents, 3)
	want := map[string]int64{"cache_misses": 1, "eval_components": 3}
	if got := c.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("Counters = %v, want %v", got, want)
	}
	// Name-sorted, nonzero only.
	if got, want := c.String(), "cache_misses=1 eval_components=3"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := NewCost().String(); got != "" {
		t.Errorf("zero Cost String = %q, want empty", got)
	}
}

func TestCostKindNames(t *testing.T) {
	if got, want := EvalAltsTabulated.String(), "eval_alts_tabulated"; got != want {
		t.Errorf("EvalAltsTabulated = %q, want %q", got, want)
	}
	if got, want := CostKind(-1).String(), "cost(-1)"; got != want {
		t.Errorf("out-of-range kind = %q, want %q", got, want)
	}
}

// Concurrent adds from evaluation worker goroutines must not lose
// counts (run under -race in CI).
func TestCostConcurrent(t *testing.T) {
	c := NewCost()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(DecideValuations, 1)
				c.Max(DecideWitnessDepth, int64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Get(DecideValuations); got != workers*per {
		t.Errorf("DecideValuations = %d, want %d", got, workers*per)
	}
	if got := c.Get(DecideWitnessDepth); got != workers*per-1 {
		t.Errorf("DecideWitnessDepth = %d, want %d", got, workers*per-1)
	}
}

// TestCostSnapshot: Snapshot/AddSnapshot fold a private run's counters
// into a shared sink, preserving Max semantics for high-water kinds —
// the mechanism an observed wsdalg evaluation uses to give each plan an
// exact private cost breakdown under a request-wide sink.
func TestCostSnapshot(t *testing.T) {
	var nilCost *Cost
	if s := nilCost.Snapshot(); s.Counters() != nil {
		t.Error("nil Snapshot must be all-zero")
	}
	nilCost.AddSnapshot(CostSnapshot{}) // no panic

	private := NewCost()
	private.Add(EvalParts, 3)
	private.Max(EvalMergeSpaceMax, 10)
	snap := private.Snapshot()
	if snap.Get(EvalParts) != 3 || snap.Get(EvalMergeSpaceMax) != 10 {
		t.Fatalf("snapshot = %v", snap.Counters())
	}
	if snap.Get(CostKind(-1)) != 0 || snap.Get(numCostKinds) != 0 {
		t.Error("out-of-range Get must return 0")
	}

	sink := NewCost()
	sink.Add(EvalParts, 1)
	sink.Max(EvalMergeSpaceMax, 25) // higher water than the snapshot
	sink.AddSnapshot(snap)
	if got := sink.Get(EvalParts); got != 4 {
		t.Errorf("additive fold: eval_parts = %d, want 4", got)
	}
	if got := sink.Get(EvalMergeSpaceMax); got != 25 {
		t.Errorf("max fold must keep the higher water mark, got %d", got)
	}
	sink2 := NewCost()
	sink2.AddSnapshot(snap)
	if got := sink2.Get(EvalMergeSpaceMax); got != 10 {
		t.Errorf("max fold into empty sink = %d, want 10", got)
	}
}
