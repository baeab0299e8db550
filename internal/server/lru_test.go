package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[string, int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted below capacity")
	}
	// a was just touched, so inserting c must evict b.
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity despite being least recently used")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a = %v, %v; want 1, true", v, ok)
	}
	if v, ok := c.get("c"); !ok || v != 3 {
		t.Fatalf("c = %v, %v; want 3, true", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLRUUpdateRefreshesEntry(t *testing.T) {
	c := newLRU[string, int](2)
	c.add("a", 1)
	c.add("b", 2)
	c.add("a", 10) // refresh, not insert: b stays
	c.add("c", 3)  // evicts b
	if v, ok := c.get("a"); !ok || v != 10 {
		t.Fatalf("a = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived; refresh of a should have left it least recently used")
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newLRU[string, int](capacity)
		c.add("a", 1)
		if _, ok := c.get("a"); ok {
			t.Fatalf("cap=%d: cache stored an entry while disabled", capacity)
		}
		if c.len() != 0 {
			t.Fatalf("cap=%d: len = %d, want 0", capacity, c.len())
		}
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup[string]
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	const followers = 7
	var wg sync.WaitGroup
	shared := make([]bool, followers+1)
	vals := make([]any, followers+1)

	// The leader blocks inside fn; followers that call do while it is
	// gated must join its flight instead of executing their own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], _, shared[0] = g.do("k", func() (any, error) {
			close(started)
			calls.Add(1)
			<-gate
			return 42, nil
		})
	}()
	<-started
	var arrived atomic.Int64
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			vals[i], _, shared[i] = g.do("k", func() (any, error) {
				calls.Add(1)
				return 42, nil
			})
		}(i)
	}
	// Release the leader only after every follower has reached its do
	// call (plus a couple of scheduler quanta for the final registration
	// step) so the followers join the gated flight instead of starting
	// their own after it completes.
	for arrived.Load() < followers {
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	wg.Wait()

	// All followers were parked on the flight; none may have run its own
	// fn. Tolerate a straggler (the arrival signal precedes registration
	// by a few instructions) but demand real coalescing.
	if got := calls.Load(); got > 2 {
		t.Fatalf("calls = %d, want coalescing (≤ 2) across %d followers", got, followers)
	}
	for i, v := range vals {
		if v.(int) != 42 {
			t.Fatalf("caller %d got %v, want 42", i, v)
		}
	}
	if shared[0] {
		t.Fatal("leader reported shared = true")
	}
}

func TestFlightGroupDistinctKeysDoNotCoalesce(t *testing.T) {
	var g flightGroup[string]
	v1, _, _ := g.do("a", func() (any, error) { return 1, nil })
	v2, _, _ := g.do("b", func() (any, error) { return 2, nil })
	if v1.(int) != 1 || v2.(int) != 2 {
		t.Fatalf("got %v, %v; want 1, 2", v1, v2)
	}
}

func TestFlightGroupSequentialCallsRerun(t *testing.T) {
	var g flightGroup[string]
	n := 0
	for i := 0; i < 3; i++ {
		v, _, shared := g.do("k", func() (any, error) { n++; return n, nil })
		if shared {
			t.Fatalf("call %d reported shared with no concurrency", i)
		}
		if v.(int) != i+1 {
			t.Fatalf("call %d = %v, want %d (completed flights must not be reused)", i, v, i+1)
		}
	}
}
