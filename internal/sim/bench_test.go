package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	_ "spinal/internal/experiments" // registers every scenario
	"spinal/internal/sim"
)

// BenchmarkScenarioTrialScaling measures how the previously-serial
// experiments scale once their trial loops run on the sharded sim runner:
// the same scenario at 1 trial worker versus GOMAXPROCS. The adapt, harq and
// bsc scenarios all ran single-threaded before the unified engine; compare
// the two worker counts' ns/op to see the speedup.
func BenchmarkScenarioTrialScaling(b *testing.B) {
	for _, name := range []string{"adapt", "harq", "bsc"} {
		sc, ok := sim.Lookup(name)
		if !ok {
			b.Fatalf("scenario %q not registered", name)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/trial-workers=%d", name, workers), func(b *testing.B) {
				req := sim.DefaultRequest()
				req.SNRs = []float64{6}
				req.SNR = 12
				req.Trials = 8
				req.Frames = 16
				req.TrialWorkers = workers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sc.Run(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrialRunner isolates the runner's own overhead and scaling on a
// synthetic CPU-bound trial, without any decoder in the loop.
func BenchmarkTrialRunner(b *testing.B) {
	work := func(w *sim.Worker, trial int) (float64, error) {
		x := float64(trial + 1)
		for i := 0; i < 200_000; i++ {
			x += 1 / x
		}
		return x, nil
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Runner{Workers: workers}, 64, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
