package lru

import (
	"runtime"
	"strings"
	"testing"
)

var sink *Cache[int]

// TestNewAllocatesOnFirstUse: a cache nothing is added to costs a few small
// objects, not a map sized to its capacity (≈ 12.7 KB at 256).
func TestNewAllocatesOnFirstUse(t *testing.T) {
	const runs = 100
	objects := testing.AllocsPerRun(runs, func() { sink = New[int](256) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		sink = New[int](256)
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; objects > 3 || bytes > 512 {
		t.Errorf("New(256) with no Add costs %.0f objects and %d bytes, want ≤ 3 and ≤ 512", objects, bytes)
	}
}

// TestEachIsOldestFirst: Each visits the least recently used entry first
// and marks none used, so a cache filled in its order evicts in the same
// order.
func TestEachIsOldestFirst(t *testing.T) {
	c := New[int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Get("a")
	var keys []string
	next := New[int](3)
	c.Each(func(k string, v int) {
		keys = append(keys, k)
		next.Add(k, v)
	})
	if got := strings.Join(keys, ""); got != "bca" {
		t.Fatalf("Each visited %q, want bca", got)
	}
	c.Each(func(string, int) {})
	c.Add("x", 0)
	next.Add("x", 0)
	for _, cache := range []*Cache[int]{c, next} {
		if _, ok := cache.Get("b"); ok {
			t.Error("the oldest entry survived an eviction")
		}
		if v, ok := cache.Get("a"); !ok || v != 1 {
			t.Errorf("a = %d, %v after the eviction", v, ok)
		}
	}
}
