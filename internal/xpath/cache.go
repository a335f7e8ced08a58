package xpath

import (
	"sync/atomic"

	"rxview/internal/lru"
)

// Cache is a bounded, concurrency-safe LRU of compiled paths. Parsed
// *Path values are immutable (Normalize and both evaluators only read
// them), so one compiled path can back any number of concurrent
// evaluations — a serving layer parses each distinct query text once.
//
// Parse failures are cached too — a path longer than MaxSteps is one — so
// a malformed query hot in the request stream costs one map hit, not a
// re-parse, and callers short-circuit before allocating an evaluator.
type Cache struct {
	lru *lru.Cache[parsed]

	hits   atomic.Uint64
	misses atomic.Uint64
}

type parsed struct {
	p   *Path
	err error
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	return &Cache{lru: lru.New[parsed](capacity)}
}

// Parse returns the compiled path (or the cached parse error) for the query
// text, compiling it on first sight.
func (c *Cache) Parse(text string) (*Path, error) {
	if e, ok := c.lru.Get(text); ok {
		c.hits.Add(1)
		return e.p, e.err
	}
	c.misses.Add(1)
	// Parse outside the cache's lock: a slow parse must not stall unrelated
	// hits. A racing duplicate parse of the same text is harmless — the first
	// add wins and both results are equivalent.
	p, err := Parse(text)
	if err == nil {
		// Refuse here what every evaluator would refuse, so a caller meets
		// a path it cannot use as one error, at compile time.
		if err = checkLen(p.compiled().steps); err != nil {
			p = nil
		}
	}
	e := c.lru.Add(text, parsed{p: p, err: err})
	return e.p, e.err
}

// Stats returns the cache's hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
