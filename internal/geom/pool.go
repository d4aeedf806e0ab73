package geom

import (
	"sync"
	"sync/atomic"
)

// The pool's fan-out sizes: a phase of fewer than fanOutMin units runs on
// the calling goroutine alone, and no shard is smaller than shardMin
// units. They keep a window-patched recheck, a small cell and a small
// chip off the pool entirely: below them a goroutine costs more than the
// work it would take over.
const (
	fanOutMin = 2048
	shardMin  = 512
)

// Shards returns how many shards a phase of n units splits into on a pool
// of workers goroutines: one — the phase runs serially — with one worker
// or fewer than fanOutMin units, else as many shards of at least shardMin
// units as fit, up to four per worker, so that a worker that starts late
// finds shards left to take.
func Shards(n, workers int) int {
	if workers <= 1 || n < fanOutMin {
		return 1
	}
	m := n / shardMin
	if m > 4*workers {
		m = 4 * workers
	}
	return m
}

// ShardRange returns the half-open unit range [lo, hi) of shard k when n
// units split into m shards of near-equal size, in order.
func ShardRange(k, m, n int) (lo, hi int) {
	return k * n / m, (k + 1) * n / m
}

// RunShards calls fn(k) exactly once for every k in [0, n), on the calling
// goroutine and up to workers-1 helpers, handing out indices from a shared
// counter. The caller takes indices like any helper, so a helper that the
// scheduler has not started yet costs nothing: on a busy process the
// caller works through every index alone, at serial speed. With one
// worker or one index nothing is spawned. RunShards returns when every
// call has returned and every helper has exited.
//
// A panic in fn stops the handing out of indices; once every helper has
// stopped, the first panic value is raised again on the calling goroutine,
// where the caller's own recovery (a server handler's, say) can see it.
func RunShards(n, workers int, fn func(k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first any
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { first = r })
				next.Store(int64(n))
			}
		}()
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			fn(k)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
