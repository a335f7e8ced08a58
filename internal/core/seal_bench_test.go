package core

import (
	"fmt"
	"testing"
)

// BenchmarkSnapshotSeal measures the O(Δ) publication primitive alone (no
// writes between seals — the floor), and BenchmarkCloneSnapshot the O(n)
// deep-clone baseline. The per-write regime is core.seal_us in a traced
// bench/run.sh run; nc=25000 (~110k nodes) takes seconds to build, so it
// only runs when benching.
func BenchmarkSnapshotSeal(b *testing.B) {
	for _, nc := range []int{250, 2500, 25000} {
		_, s := openSynthetic(b, nc, 7)
		b.Run(fmt.Sprintf("nc=%d", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Snapshot()
			}
		})
	}
}

func BenchmarkCloneSnapshot(b *testing.B) {
	for _, nc := range []int{250, 2500} {
		_, s := openSynthetic(b, nc, 7)
		b.Run(fmt.Sprintf("nc=%d", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.CloneSnapshot()
			}
		})
	}
}
