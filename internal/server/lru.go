package server

import "container/list"

// lruCache is a mutex-free LRU used under the owning structure's lock
// discipline: Server guards each instance with its own sync.Mutex. A
// capacity <= 0 disables the cache entirely (every Get misses, every Add
// is dropped) — the configuration the uncached benchmark probes and the
// cache-ablation tests run under.
type lruCache struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

// add inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache) add(key string, val any) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*lruEntry).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.m, tail.Value.(*lruEntry).key)
	}
}

// len reports the live entry count.
func (c *lruCache) len() int { return c.ll.Len() }

// purge removes every entry whose key and value satisfy drop, returning
// the number removed. Used on version bumps to reclaim answers cached
// against versions that can never be requested again (their keys embed
// the dead version, so they would otherwise squat in the LRU until
// capacity pressure evicts them).
func (c *lruCache) purge(drop func(key string, val any) bool) int {
	n := 0
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*lruEntry); drop(ent.key, ent.val) {
			c.ll.Remove(e)
			delete(c.m, ent.key)
			n++
		}
		e = next
	}
	return n
}

// each calls fn with every live key, most recently used first.
func (c *lruCache) each(fn func(key string)) {
	for e := c.ll.Front(); e != nil; e = e.Next() {
		fn(e.Value.(*lruEntry).key)
	}
}
