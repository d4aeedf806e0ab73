package core

import (
	"sync/atomic"
	"testing"
)

// runShards must call fn exactly once per index for any worker count,
// including more workers than indices, one worker, and no indices at all.
func TestShardsVisitEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 8, 200} {
			visits := make([]atomic.Int32, n)
			runShards(n, workers, func(k int) { visits[k].Add(1) })
			for k := range visits {
				if got := visits[k].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, k, got)
				}
			}
		}
	}
}
