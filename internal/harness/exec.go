package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(worker, i) exactly once for every i in [0, n), handing
// indices out in order to at most workers goroutines (workers <= 0 means
// GOMAXPROCS); worker is the calling goroutine's number in [0, workers).
// Once ctx is done no further index is handed out, calls in flight
// finish, and Each returns how many indices were dispatched — a prefix of
// [0, n), so dispatched < n means canceled. It is the one bounded pool
// behind figure sweeps, seed pooling, chaos soaks and the farm.
func Each(ctx context.Context, workers, n int, fn func(worker, i int)) (dispatched int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return min(int(next.Load()), n)
}

// Try is run(sc) with what Run panics with returned as an error instead:
// a watchdog kill comes back as its *KilledError, a scenario contract
// violation as "panic: ...". run is Run, or a test's stand-in for it.
// Supervisors that must outlive a bad scenario — the farm's point
// executor, the chaos soak runner — call this rather than recover.
func Try(run func(Scenario) *Result, sc Scenario) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ke, ok := r.(*KilledError); ok {
				err = ke
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return run(sc), nil
}
