package server

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightGroupPanicUnwedges is the coalescing-bugfix regression: a
// panicking fn used to leave its key in-flight forever — every waiter
// blocked on a never-closed channel and the key was poisoned for the
// life of the process. Now the panic propagates to the executing
// caller, concurrent waiters fail with an error, and the key is free
// for the next call.
func TestFlightGroupPanicUnwedges(t *testing.T) {
	var g flightGroup[string]

	const waiters = 4
	entered := make(chan struct{})
	var arrived sync.WaitGroup
	arrived.Add(waiters)

	execDone := make(chan any, 1)
	go func() {
		defer func() { execDone <- recover() }()
		g.do("k", func() (any, error) {
			close(entered)
			// Wait until every waiter has announced itself, plus a
			// grace period for the announce→block handoff inside do.
			arrived.Wait()
			time.Sleep(20 * time.Millisecond)
			panic("eval exploded")
		})
	}()

	<-entered // the key is in flight from here on
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Done()
			_, err, shared := g.do("k", func() (any, error) {
				t.Error("waiter must coalesce, not execute")
				return nil, nil
			})
			if !shared {
				t.Error("waiter ran its own fn")
			}
			errs[i] = err
		}(i)
	}

	if r := <-execDone; r == nil || r != "eval exploded" {
		t.Fatalf("executing caller recovered %v, want the original panic value", r)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter %d error = %v, want a shared-call-panicked error", i, err)
		}
	}

	// The key must be free again: a fresh call executes normally.
	val, err, shared := g.do("k", func() (any, error) { return 42, nil })
	if err != nil || shared || val != 42 {
		t.Fatalf("post-panic call = (%v, %v, shared=%v), want (42, nil, false)", val, err, shared)
	}
}

// TestFlightGroupPanicThroughServer drives the panic through a real
// coalesced eval: a query evaluation that panics must not wedge the
// next identical request.
func TestFlightGroupPanicThroughServer(t *testing.T) {
	var g flightGroup[string]
	boom := true
	call := func() (val any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = nil
				val = "recovered-at-caller"
			}
		}()
		v, derr, _ := g.do("q", func() (any, error) {
			if boom {
				boom = false
				panic("first eval dies")
			}
			return "answer", nil
		})
		return v, derr
	}
	if v, _ := call(); v != "recovered-at-caller" {
		t.Fatalf("first call = %v, want the panic to reach its caller", v)
	}
	v, err := call()
	if err != nil || v != "answer" {
		t.Fatalf("second call = (%v, %v), want the key unpoisoned", v, err)
	}
}
