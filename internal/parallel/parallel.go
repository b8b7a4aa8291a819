// Package parallel is a minimal bounded worker pool for fanning
// independent simulations out across cores. Experiment drivers hand it
// a fixed task list; results land in input order, so everything
// rendered from them (tables, CSV, SVG) is byte-identical to a serial
// run regardless of worker count or completion order.
//
// Only the standard library's sync primitives are used; tasks must not
// share mutable state (sim.Run clones its machine, scheduler, and
// jobs, so independent configurations qualify).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n <= 0 means one worker
// per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs task(i) for every i in [0, n) on up to workers
// goroutines (capped at n; workers <= 0 means GOMAXPROCS) and blocks
// until all started tasks return. The error reported is the one from
// the lowest task index — the same error a serial loop would have hit
// first — independent of scheduling order. Once any task fails,
// not-yet-claimed tasks are skipped; tasks already running complete.
func ForEach(n, workers int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx int
		err    error
		wg     sync.WaitGroup
	)
	record := func(i int, e error) {
		mu.Lock()
		if err == nil || i < errIdx {
			errIdx, err = i, e
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if e := task(i); e != nil {
					record(i, e)
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// Map runs f(i) for every i in [0, n) across the pool and returns the
// results indexed by i — deterministic output for nondeterministic
// completion order. On error the results are nil.
func Map[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, e := f(i)
		if e != nil {
			return e
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
