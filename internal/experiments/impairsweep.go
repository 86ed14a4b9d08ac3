package experiments

import (
	"fmt"

	"spinal/internal/impair"
	"spinal/internal/sim"
	"spinal/internal/stats"
)

// This file is the impairment-sweep experiment: the spinal code's achieved
// rate over a stacked impairment pipeline versus each of the stack's stages
// alone. The paper's motivating claim is robustness to unknown and
// time-varying conditions; this experiment quantifies the claim by holding
// the code fixed and composing the channel, showing that the code keeps
// delivering (at a lower rate) when the stages gang up.

// DefaultImpairStack is the stacked profile the impairsweep and bakeoff
// scenarios default to: burst SNR gating under Markov interference spikes
// under per-block erasures.
const DefaultImpairStack = "ge(good=18,bad=4,dgood=400,dbad=120)|spike(prob=0.02,dwell=25,db=-3)|erase(p=0.01,block=24)"

// ImpairPoint is one profile's outcome in the impairment sweep.
type ImpairPoint struct {
	// Profile names the pipeline ("stack" for the full composition, the
	// stage's canonical spec otherwise).
	Profile string
	// Rate is the aggregate achieved rate in bits per symbol.
	Rate float64
	// Conf95 is the half-width of a 95% CI on the per-message rate mean.
	Conf95 float64
	// Failures counts messages not decoded within the pass budget.
	Failures int
	Trials   int
}

// pipelineSeed derives the per-trial pipeline seed: a third stream alongside
// the message (0x9e37...) and AWGN-channel (0xbb67...) mixers, so every
// trial faces a fresh, reproducible impairment schedule.
func pipelineSeed(seed, trial uint64) uint64 {
	return seed ^ (0x7f4a7c159e3779b9 * (trial + 1))
}

// spinalRateOverSpec measures the spinal genie rate over the pipeline the
// spec describes, sharded over the sim runner with per-trial pipeline seeds.
func spinalRateOverSpec(cfg SpinalConfig, spec *impair.Spec) (ImpairPoint, error) {
	cfg = cfg.withDefaults()
	params, err := cfg.params()
	if err != nil {
		return ImpairPoint{}, err
	}
	sched, err := scheduleFor(cfg, params.NumSegments())
	if err != nil {
		return ImpairPoint{}, err
	}
	// Build once eagerly so a bad spec fails before any trial runs.
	if _, err := spec.Build(cfg.Seed); err != nil {
		return ImpairPoint{}, err
	}

	results, err := sim.Run(cfg.runner(), cfg.Trials, func(w *sim.Worker, trial int) (genieTrial, error) {
		lease, err := w.Decoder(params, cfg.BeamWidth)
		if err != nil {
			return genieTrial{}, err
		}
		pl, err := spec.Build(pipelineSeed(cfg.Seed, uint64(trial)))
		if err != nil {
			return genieTrial{}, err
		}
		symbols, ok := runGenieTrialOver(cfg, params, sched, lease, pl, uint64(trial))
		return genieTrial{symbols: symbols, ok: ok}, nil
	})
	if err != nil {
		return ImpairPoint{}, err
	}

	var meter stats.RateMeter
	failures := 0
	for _, r := range results {
		if !r.ok {
			failures++
		}
		bits := 0
		if r.ok {
			bits = cfg.MessageBits
		}
		meter.Record(bits, r.symbols)
	}
	return ImpairPoint{
		Profile:  spec.String(),
		Rate:     meter.Rate(),
		Conf95:   meter.PerMessage().Conf95(),
		Failures: failures,
		Trials:   cfg.Trials,
	}, nil
}

// ImpairSweep measures the spinal rate over each stage of the stack alone
// and then over the full stack, on identical per-trial message streams. The
// stack's point is labeled "stack" and always comes last.
func ImpairSweep(cfg SpinalConfig, stack *impair.Spec) ([]ImpairPoint, error) {
	if len(stack.Stages) == 0 {
		return nil, fmt.Errorf("experiments: impairment sweep needs at least one stage")
	}
	var pts []ImpairPoint
	for i := range stack.Stages {
		pt, err := spinalRateOverSpec(cfg, stack.Single(i))
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	full, err := spinalRateOverSpec(cfg, stack)
	if err != nil {
		return nil, err
	}
	full.Profile = "stack"
	return append(pts, full), nil
}
