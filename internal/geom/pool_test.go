package geom

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// RunShards must call fn exactly once per index for any worker count,
// including more workers than indices, one worker, and no indices at all.
func TestShardsVisitEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 8, 200} {
			visits := make([]atomic.Int32, n)
			RunShards(n, workers, func(k int) { visits[k].Add(1) })
			for k := range visits {
				if got := visits[k].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, k, got)
				}
			}
		}
	}
}

// A panic in fn reaches the caller of RunShards with its own value, on the
// calling goroutine, after every helper has exited: a server handler's
// recovery sees it instead of the process dying on a bare goroutine.
func TestShardsPanicReachesCaller(t *testing.T) {
	type boom struct{ k int }
	for _, workers := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		var got any
		var calls atomic.Int32
		func() {
			defer func() { got = recover() }()
			RunShards(1000, workers, func(k int) {
				calls.Add(1)
				if k == 17 {
					panic(boom{k})
				}
			})
		}()
		if got != (boom{17}) {
			t.Fatalf("workers=%d: recovered %v, want %v", workers, got, boom{17})
		}
		if n := calls.Load(); workers == 1 && n != 18 {
			t.Fatalf("workers=1: %d indices ran, want the 18 up to the panic", n)
		}
		// Helpers have returned from work before RunShards re-panics; give
		// the runtime a moment to retire their goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after the panic, %d before", workers, n, before)
		}
	}
}

// Shards keeps small phases on the caller and never splits a phase into
// shards below shardMin units or past four per worker; ShardRange tiles
// the units in order.
func TestShardsSizes(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{100000, 1, 1},
		{fanOutMin - 1, 8, 1},
		{fanOutMin, 2, fanOutMin / shardMin},
		{100000, 2, 8},
		{3 * shardMin, 64, 1},
	} {
		if got := Shards(c.n, c.workers); got != c.want {
			t.Errorf("Shards(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
	for _, n := range []int{0, 5, 2048, 9999} {
		for m := 1; m <= 9; m++ {
			next := 0
			for k := 0; k < m; k++ {
				lo, hi := ShardRange(k, m, n)
				if lo != next || hi < lo {
					t.Fatalf("ShardRange(%d, %d, %d) = [%d, %d), want it to start at %d", k, m, n, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("m=%d shards of %d units end at %d", m, n, next)
			}
		}
	}
}
