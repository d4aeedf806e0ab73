package geom

import (
	"sync"
	"sync/atomic"
)

// RunShards executes fn(0..n-1) on up to `workers` goroutines, handing out
// indices from a shared counter; every index is visited exactly once. It
// returns when every call is done.
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
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}
