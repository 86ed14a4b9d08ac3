package experiments

import (
	"runtime"
	"testing"

	"spinal/internal/sim"
)

// registryNames are the scenarios this package is expected to register; the
// test fails if one goes missing so a scenario cannot be dropped silently.
var registryNames = []string{
	"figure2", "spinal", "bounds", "ldpc", "conv", "bsc", "beam", "puncture",
	"adc", "mapper", "theorem1", "fountain", "harq", "adapt", "fixedrate",
	"impairsweep", "churnload", "bakeoff", "frontier", "saturate",
}

// smokeRequest is the minimal-trials request the registry-wide tests run
// every scenario with: one SNR point, a handful of trials and frames.
func smokeRequest() sim.Request {
	req := sim.DefaultRequest()
	req.SNRs = []float64{10}
	req.SNR = 18 // the beam/saturate operating point; 18 dB delivers reliably
	req.Trials = 2
	req.Frames = 4
	return req
}

func TestRegistryComplete(t *testing.T) {
	for _, name := range registryNames {
		sc, ok := sim.Lookup(name)
		if !ok {
			t.Errorf("scenario %q not registered", name)
			continue
		}
		if sc.Description == "" || len(sc.Flags) == 0 || len(sc.Schema) == 0 {
			t.Errorf("scenario %q missing metadata: %+v", name, sc)
		}
	}
}

// TestRegistryDeterministicAcrossTrialWorkers is the registry-wide property
// test of the sharded runner: every scenario, run at trial-worker counts
// {1, 3, GOMAXPROCS}, must produce bit-identical point values (volatile
// wall-clock columns excluded via Result.Fingerprint). Each decode runs on
// one goroutine, so concurrency enters only across trials (here) and across
// messages (the link receiver's TestReceiverConcurrentMatchesSingleWorker).
func TestRegistryDeterministicAcrossTrialWorkers(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, name := range registryNames {
		sc, ok := sim.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			var want string
			var wantWorkers int
			for _, w := range workerCounts {
				req := smokeRequest()
				req.TrialWorkers = w
				res, err := sc.Run(req)
				if err != nil {
					t.Fatalf("trial-workers=%d: %v", w, err)
				}
				if len(res.Tables) == 0 {
					t.Fatalf("trial-workers=%d: scenario produced no tables", w)
				}
				fp := res.Fingerprint()
				if want == "" {
					want, wantWorkers = fp, w
					continue
				}
				if fp != want {
					t.Errorf("results differ between %d and %d trial workers:\n--- %d workers ---\n%s\n--- %d workers ---\n%s",
						wantWorkers, w, wantWorkers, want, w, fp)
				}
			}
		})
	}
}
