package lru

import (
	"runtime"
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
