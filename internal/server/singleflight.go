package server

import (
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent calls with the same key into one
// execution: the first caller runs fn, the rest block until it finishes
// and share its result. This is the request-batching layer — a burst of
// identical uncached queries costs one evaluation, not one per client.
// (A deliberately minimal re-implementation of the x/sync singleflight
// idea; the repository vendors nothing.)
type flightGroup[K comparable] struct {
	mu sync.Mutex
	m  map[K]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do runs fn once per key among concurrent callers. shared reports
// whether this caller piggybacked on another's execution.
func (g *flightGroup[K]) do(key K, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// fn may panic (or call runtime.Goexit, e.g. a test Fatalf inside a
	// handler). Without this cleanup the key would stay in-flight
	// forever and every later caller for it would block on a channel
	// nobody will close. Unwind: fail the waiters with an error, free
	// the key, and let the panic continue in the executing caller only.
	normal := false
	defer func() {
		var r any
		panicked := false
		if !normal {
			if r = recover(); r != nil {
				panicked = true
				c.err = fmt.Errorf("server: shared call panicked: %v", r)
			} else {
				// runtime.Goexit: unrecoverable, but the waiters still
				// need an answer and the key must not wedge.
				c.err = fmt.Errorf("server: shared call exited without returning")
			}
			c.val = nil
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if panicked {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	normal = true
	return c.val, c.err, false
}
