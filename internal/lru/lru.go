// Package lru is the repository's one least-recently-used cache: a bounded,
// concurrency-safe map from string keys to values. xpath.Cache keeps
// compiled paths in one, and every published server epoch keeps its query
// results in another, carried over in part from the epoch before.
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most its capacity of entries and evicts the least recently
// used one beyond that. Safe for concurrent use; values are handed out as
// stored, so callers share them and must treat them as read-only.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are *entry[V]
	byKey map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache bounded to capacity entries (minimum 1). The map
// grows with its entries, not to the capacity up front: a published server
// epoch makes a cache whether or not anyone reads it.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Add caches val under key unless the key is already present, and returns
// the value the cache now holds for it: racing adds of one key keep the
// first, so every caller ends up with the same value.
func (c *Cache[V]) Add(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.byKey, old.Value.(*entry[V]).key)
	}
	return val
}

// Each calls fn with every entry, least recently used first, without
// marking any used: adding them to another cache in this order gives it the
// same order. fn must not call into c.
func (c *Cache[V]) Each(fn func(key string, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		fn(e.key, e.val)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
