package server

import "container/list"

// lruCache is a mutex-free LRU used under the owning structure's lock
// discipline: Server guards each instance with its own sync.Mutex. A
// capacity <= 0 disables the cache entirely (every Get misses, every Add
// is dropped) — the configuration the uncached benchmark probes and the
// cache-ablation tests run under.
type lruCache[K comparable, V any] struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[K, V]) get(key K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	e, ok := c.m[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry[K, V]).val, true
}

// add inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache[K, V]) add(key K, val V) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.m, tail.Value.(*lruEntry[K, V]).key)
	}
}

// len reports the live entry count.
func (c *lruCache[K, V]) len() int { return c.ll.Len() }

// purge removes every entry whose key and value satisfy drop, returning
// the number removed. Used on version bumps to reclaim answers cached
// against versions that can never be requested again (their keys embed
// the dead version, so they would otherwise squat in the LRU until
// capacity pressure evicts them).
func (c *lruCache[K, V]) purge(drop func(key K, val V) bool) int {
	n := 0
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*lruEntry[K, V]); drop(ent.key, ent.val) {
			c.ll.Remove(e)
			delete(c.m, ent.key)
			n++
		}
		e = next
	}
	return n
}

// each calls fn with every live key, most recently used first.
func (c *lruCache[K, V]) each(fn func(key K)) {
	for e := c.ll.Front(); e != nil; e = e.Next() {
		fn(e.Value.(*lruEntry[K, V]).key)
	}
}
