package sim

import (
	"fmt"
	"runtime"
	"sync"

	"spinal/internal/core"
)

// Runner configures the sharded trial runner.
type Runner struct {
	// Workers is the number of trial goroutines; zero or less selects
	// GOMAXPROCS. The worker count never changes results — only wall-clock
	// time.
	Workers int
	// Pool optionally supplies the decoder pool trials lease from (shared
	// across Run calls, e.g. across the points of an SNR sweep). Nil builds
	// a private pool per Run call, drained when the run ends.
	Pool *core.DecoderPool
}

// Worker is the per-goroutine context handed to every trial. It carries the
// run's decoder pool, which trials lease from and release to within the
// trial, and arbitrary stashed values a worker reuses across the trials it
// executes (an LDPC decoder, a HARQ scheme). Reused state must never change
// trial results — which trials land on which worker depends on scheduling,
// and the runner's determinism guarantee depends on the trial index alone.
type Worker struct {
	// Index identifies the worker within the run, 0..workers-1.
	Index int

	pool  *core.DecoderPool
	stash map[string]any
}

// Pool returns the run's decoder pool. A trial leases its decoder from it
// (directly, or through core.SessionConfig.Pool) and releases the lease
// before it returns, so a worker running many trials reuses one idle
// decoder per parameter set.
func (w *Worker) Pool() *core.DecoderPool { return w.pool }

// Stash returns the worker-scoped value under key, building it on first
// use. Trials that land on the same worker share the value; the builder
// must therefore produce state whose reuse does not change results.
func (w *Worker) Stash(key string, build func() (any, error)) (any, error) {
	if v, ok := w.stash[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if w.stash == nil {
		w.stash = map[string]any{}
	}
	w.stash[key] = v
	return v, nil
}

// Run executes fn for trials 0..trials-1, distributed across the runner's
// worker pool, and returns the per-trial results indexed by trial. The
// assignment of trials to workers depends on scheduling, but each trial's
// inputs derive from its index alone and each result lands in its own slot,
// so the returned slice — and anything folded from it in order — is
// bit-identical at any worker count. On error the lowest-indexed failing
// trial wins, for the same reason.
func Run[T any](r Runner, trials int, fn func(w *Worker, trial int) (T, error)) ([]T, error) {
	if trials <= 0 {
		return nil, nil
	}
	if fn == nil {
		return nil, fmt.Errorf("sim: nil trial function")
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	pool := r.Pool
	if pool == nil {
		pool = core.NewDecoderPool(workers)
		defer pool.Drain()
	}

	results := make([]T, trials)
	errs := make([]error, trials)
	trialCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(idx int) {
			defer wg.Done()
			w := &Worker{Index: idx, pool: pool}
			for trial := range trialCh {
				out, err := fn(w, trial)
				if err != nil {
					errs[trial] = err
					continue
				}
				results[trial] = out
			}
		}(i)
	}
	for trial := 0; trial < trials; trial++ {
		trialCh <- trial
	}
	close(trialCh)
	wg.Wait()
	for trial, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d: %w", trial, err)
		}
	}
	return results, nil
}
