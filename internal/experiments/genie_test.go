package experiments

import (
	"testing"

	"spinal/internal/core"
	"spinal/internal/impair"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// TestSpinalRateMatchesLinearScan pins the spinal rate trials to the
// paper's genie, trial by trial, at -10 dB, where decodability is least
// monotone in the prefix length: every trial must stop exactly where a
// per-prefix linear scan over the same attempt grid first decodes the
// message. A search that skips grid points (an exponential-then-binary
// search, say) stops late on some of these trials and understates the rate.
func TestSpinalRateMatchesLinearScan(t *testing.T) {
	cfg := Figure2Config()
	cfg.Trials = 12
	cfg.TrialWorkers = 2
	const snrDB = -10.0
	got, err := runTrials(cfg, snrDB, genieGrid, cfg.Search)
	if err != nil {
		t.Fatal(err)
	}
	params, err := cfg.params()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduleFor(cfg, params.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg.runner(), cfg.Trials, func(w *sim.Worker, trial int) (trialResult, error) {
		return linearScanTrial(cfg, params, sched, w.Pool(), snrDB, trial)
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := range got {
		if got[trial].uses != want[trial].uses || got[trial].ok != want[trial].ok {
			t.Errorf("trial %d: session stopped at %d symbols (delivered %v), the linear scan at %d (delivered %v)",
				trial, got[trial].uses, got[trial].ok, want[trial].uses, want[trial].ok)
		}
	}
}

// linearScanTrial is the reference genie for one trial: it builds the
// trial's whole received stream up front (same message, noise and schedule
// as runTrials), then decodes every prefix on the AttemptAdaptive{
// FinePasses: 2} grid in order, from the noiseless bound up, and returns
// the first prefix that decodes to the message.
func linearScanTrial(cfg SpinalConfig, params core.Params, sched core.Schedule, pool *core.DecoderPool, snrDB float64, trial int) (trialResult, error) {
	msg := core.RandomMessage(rng.New(cfg.Seed^(0x9e3779b97f4a7c15*uint64(trial+1))), cfg.MessageBits)
	radio, err := impair.NewQuantizedAWGN(snrDB, cfg.ADCBits, rng.New(cfg.Seed^(0xbb67ae8584caa73b*uint64(trial+1))))
	if err != nil {
		return trialResult{}, err
	}
	enc, err := core.NewEncoder(params, msg)
	if err != nil {
		return trialResult{}, err
	}
	nseg := params.NumSegments()
	maxSymbols := cfg.MaxPasses * nseg
	positions := make([]core.SymbolPos, maxSymbols)
	core.PositionsInto(sched, 0, positions)
	received := make([]complex128, maxSymbols)
	if err := enc.EncodeBatch(received, positions); err != nil {
		return trialResult{}, err
	}
	radio.CorruptBlock(received, received)

	lease, err := pool.Lease(params, cfg.BeamWidth)
	if err != nil {
		return trialResult{}, err
	}
	defer lease.Release()
	grid := core.AttemptAdaptive{FinePasses: 2}
	added := 0
	for m := (cfg.MessageBits + 2*cfg.C - 1) / (2 * cfg.C); m <= maxSymbols; m++ {
		if !grid.ShouldAttempt(m, nseg) {
			continue
		}
		if err := lease.Obs.AddBatch(positions[added:m], received[added:m]); err != nil {
			return trialResult{}, err
		}
		added = m
		out, err := lease.Dec.Decode(lease.Obs)
		if err != nil {
			return trialResult{}, err
		}
		if core.EqualMessages(out.Message, msg, cfg.MessageBits) {
			return trialResult{uses: m, ok: true}, nil
		}
	}
	return trialResult{uses: maxSymbols}, nil
}
