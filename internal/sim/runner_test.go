package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"spinal/internal/core"
	"spinal/internal/rng"
	"spinal/internal/stats"
)

// TestRunDeterministicAcrossWorkerCounts checks the runner's core guarantee
// with a trial function whose output depends only on the trial index: the
// result slice — and statistics folded from it in order — must be
// bit-identical at worker counts 1, 3 and GOMAXPROCS.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	trial := func(w *Worker, i int) (float64, error) {
		src := rng.New(uint64(i+1) * 0x9e3779b97f4a7c15)
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += src.NormFloat64()
		}
		return sum, nil
	}
	var want []float64
	var wantMean float64
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		got, err := Run(Runner{Workers: workers}, 50, trial)
		if err != nil {
			t.Fatal(err)
		}
		var r stats.Running
		for _, v := range got {
			r.Add(v)
		}
		if want == nil {
			want, wantMean = got, r.Mean()
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different per-trial results", workers)
		}
		if r.Mean() != wantMean {
			t.Fatalf("workers=%d folded mean %v, want exactly %v", workers, r.Mean(), wantMean)
		}
		if r.N() != 50 {
			t.Fatalf("running stats saw %d samples, want 50", r.N())
		}
	}
}

// TestRunReportsLowestFailingTrial checks deterministic error selection:
// whichever worker hits its error first, the reported trial is the lowest
// failing index.
func TestRunReportsLowestFailingTrial(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(Runner{Workers: workers}, 20, func(w *Worker, i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("trial says %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v, want wrapped sentinel", workers, err)
		}
		if got := err.Error(); got != "sim: trial 7: trial says 7: boom" {
			t.Fatalf("workers=%d: error %q, want the lowest failing trial", workers, got)
		}
	}
}

// TestRunZeroTrialsAndNilFn pins the edge cases.
func TestRunZeroTrialsAndNilFn(t *testing.T) {
	out, err := Run(Runner{}, 0, func(w *Worker, i int) (int, error) { return i, nil })
	if err != nil || out != nil {
		t.Fatalf("zero trials: %v %v", out, err)
	}
	if _, err := Run[int](Runner{}, 3, nil); err == nil {
		t.Fatal("nil trial function accepted")
	}
}

// TestWorkerDecoderReuse checks per-trial leasing from the run's pool: a
// single-worker run that leases and releases once per trial builds one
// decoder for many trials (the pool sees exactly one miss per parameter
// set), every trial receives it reset to empty, and the run ends with the
// decoder idle in the pool.
func TestWorkerDecoderReuse(t *testing.T) {
	params := core.Params{K: 4, C: 8, MessageBits: 32, Seed: core.DefaultSeed}
	pool := core.NewDecoderPool(4)
	var distinct atomic.Int64
	seen := make(map[*core.BeamDecoder]bool)
	_, err := Run(Runner{Workers: 1, Pool: pool}, 10, func(w *Worker, i int) (int, error) {
		ld, err := w.Pool().Lease(params, 8)
		if err != nil {
			return 0, err
		}
		defer ld.Release()
		if ld.Obs.Count() != 0 {
			return 0, fmt.Errorf("trial %d: observations not reset (%d symbols)", i, ld.Obs.Count())
		}
		if err := ld.Obs.Add(core.SymbolPos{Spine: 0, Pass: 0}, 1); err != nil {
			return 0, err
		}
		if !seen[ld.Dec] {
			seen[ld.Dec] = true
			distinct.Add(1)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if distinct.Load() != 1 {
		t.Fatalf("single worker used %d decoders over 10 trials, want 1", distinct.Load())
	}
	s := pool.Stats()
	if s.Misses != 1 {
		t.Fatalf("pool misses = %d, want 1 (one decoder per parameter set)", s.Misses)
	}
	if s.Idle != 1 || s.Outstanding != 0 {
		t.Fatalf("lease not returned to the pool at end of run: %+v", s)
	}
}

// TestWorkerStash checks worker-scoped value reuse and builder error
// propagation.
func TestWorkerStash(t *testing.T) {
	builds := 0
	_, err := Run(Runner{Workers: 1}, 5, func(w *Worker, i int) (int, error) {
		v, err := w.Stash("thing", func() (any, error) {
			builds++
			return builds, nil
		})
		if err != nil {
			return 0, err
		}
		if v.(int) != 1 {
			return 0, fmt.Errorf("trial %d got stash value %v", i, v)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builder ran %d times on one worker, want 1", builds)
	}
	_, err = Run(Runner{Workers: 1}, 1, func(w *Worker, i int) (int, error) {
		_, err := w.Stash("bad", func() (any, error) { return nil, errors.New("nope") })
		return 0, err
	})
	if err == nil {
		t.Fatal("stash builder error not propagated")
	}
}
