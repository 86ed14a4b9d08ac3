package experiments

import (
	"runtime"
	"testing"

	"spinal/internal/sim"
)

// registryNames are the deterministic scenarios this package registers:
// the fingerprint and trial-worker determinism tests run each of them.
// TestRegistryComplete checks the list against the registry both ways, so a
// scenario can neither be dropped nor added without a change here. The one
// registered scenario left out is chaossoak: it runs over UDP loopback with
// wall-clock pacing, so its delivery and fault counters vary from run to run
// and cannot be fingerprinted; its own gates (no lost messages, no leaked
// leases, fairness) run inside the scenario.
var registryNames = []string{
	"figure2", "spinal", "bounds", "ldpc", "conv", "bsc", "beam", "puncture",
	"adc", "mapper", "theorem1", "fountain", "harq", "adapt", "fixedrate",
	"frontier", "saturate",
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
	listed := map[string]bool{}
	for _, name := range registryNames {
		listed[name] = true
	}
	for _, sc := range sim.Scenarios() {
		if !listed[sc.Name] && sc.Name != "chaossoak" {
			t.Errorf("scenario %q is registered but not in registryNames, so nothing pins it", sc.Name)
		}
	}
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
