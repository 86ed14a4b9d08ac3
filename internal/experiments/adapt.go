package experiments

import (
	"fmt"

	"spinal/internal/adapt"
	"spinal/internal/core"
	"spinal/internal/fading"
	"spinal/internal/impair"
	"spinal/internal/rng"
	"spinal/internal/sim"
	"spinal/internal/stats"
)

// This file hosts the two experiments that go beyond Figure 2's static-SNR
// setting: the rate-adaptation-versus-rateless comparison over time-varying
// channels (the paper's §1 motivation) and the fixed-rate instantiation of
// the spinal code (§3), which shows what is lost when the rateless feedback
// loop is removed.

// AdaptationScenario describes one time-varying channel scenario.
type AdaptationScenario struct {
	// Name labels the scenario in output tables.
	Name string
	// Trace builds the channel trace for a given seed, so both schemes see
	// an identically distributed (and, per scheme, identical) channel.
	Trace func(seed uint64) (fading.Trace, error)
	// EstimateDelay and EstimateErrDB configure the staleness and error of
	// the SNR estimate available to the adaptive scheme.
	EstimateDelay int
	EstimateErrDB float64
}

// DefaultAdaptationScenarios returns the three scenarios used by the
// adaptation experiment: a static link, slow fading (estimates stay useful)
// and fast fading (estimates are stale by the time they are used).
func DefaultAdaptationScenarios() []AdaptationScenario {
	return []AdaptationScenario{
		{
			Name:          "static 20 dB",
			Trace:         func(seed uint64) (fading.Trace, error) { return fading.Constant{Level: 20}, nil },
			EstimateDelay: 648,
			EstimateErrDB: 1,
		},
		{
			Name: "slow fading (walk 5..25 dB)",
			Trace: func(seed uint64) (fading.Trace, error) {
				return fading.NewWalk(5, 25, 0.01, seed)
			},
			EstimateDelay: 648,
			EstimateErrDB: 1,
		},
		{
			Name: "fast fading (Gilbert-Elliott 22/4 dB)",
			Trace: func(seed uint64) (fading.Trace, error) {
				return fading.NewGilbertElliott(22, 4, 700, 700, seed)
			},
			EstimateDelay: 1400,
			EstimateErrDB: 2,
		},
		{
			Name: "Rayleigh block fading (avg 15 dB)",
			Trace: func(seed uint64) (fading.Trace, error) {
				return fading.NewRayleighBlock(15, 300, seed)
			},
			EstimateDelay: 900,
			EstimateErrDB: 1,
		},
	}
}

// AdaptationPoint is the outcome of one scenario.
type AdaptationPoint struct {
	Scenario           string
	AdaptiveThroughput float64
	AdaptiveFER        float64
	RatelessThroughput float64
	RatelessFailures   int
	SymbolBudget       int
}

// AdaptationConfig drives the adaptation comparison.
type AdaptationConfig struct {
	// Scenarios are the time-varying channels to compare over; nil selects
	// DefaultAdaptationScenarios.
	Scenarios []AdaptationScenario
	// SymbolBudget is the number of channel uses each scheme spends per
	// scenario; values below 1000 select 20000.
	SymbolBudget int
	Seed         uint64
	// TrialWorkers is the sim.Run worker-pool size scenarios are sharded
	// across; zero means GOMAXPROCS.
	TrialWorkers int
}

func (c AdaptationConfig) withDefaults() AdaptationConfig {
	if c.Scenarios == nil {
		c.Scenarios = DefaultAdaptationScenarios()
	}
	if c.SymbolBudget < 1000 {
		c.SymbolBudget = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// AdaptationComparison runs reactive rate adaptation and the rateless spinal
// code over each scenario and reports both throughputs. Scenarios are
// independent simulations seeded by their index, so they shard across the
// sim runner — the previously serial experiment scales with CPUs.
func AdaptationComparison(cfg AdaptationConfig) ([]AdaptationPoint, error) {
	cfg = cfg.withDefaults()
	return sim.Run(sim.Runner{Workers: cfg.TrialWorkers}, len(cfg.Scenarios),
		func(w *sim.Worker, i int) (AdaptationPoint, error) {
			sc := cfg.Scenarios[i]
			trace, err := sc.Trace(cfg.Seed + uint64(i))
			if err != nil {
				return AdaptationPoint{}, fmt.Errorf("experiments: scenario %q: %w", sc.Name, err)
			}
			acfg := adapt.Config{
				Trace:         trace,
				SymbolBudget:  cfg.SymbolBudget,
				EstimateDelay: sc.EstimateDelay,
				EstimateErrDB: sc.EstimateErrDB,
				Seed:          cfg.Seed + uint64(i)*101,
			}
			adaptive, rateless, err := adapt.Compare(acfg)
			if err != nil {
				return AdaptationPoint{}, fmt.Errorf("experiments: scenario %q: %w", sc.Name, err)
			}
			fer := 0.0
			if adaptive.Frames > 0 {
				fer = float64(adaptive.FrameErrors) / float64(adaptive.Frames)
			}
			return AdaptationPoint{
				Scenario:           sc.Name,
				AdaptiveThroughput: adaptive.Throughput,
				AdaptiveFER:        fer,
				RatelessThroughput: rateless.Throughput,
				RatelessFailures:   rateless.FrameErrors,
				SymbolBudget:       cfg.SymbolBudget,
			}, nil
		})
}

// FixedRatePoint is one point of the fixed-rate spinal experiment.
type FixedRatePoint struct {
	SNRdB float64
	// Passes is the fixed number of encoding passes.
	Passes int
	// Rate is the nominal code rate in bits/symbol.
	Rate float64
	// Throughput is Rate x (1 - FER): what the fixed-rate code delivers.
	Throughput float64
	// FER is the block error rate.
	FER float64
	// RatelessRate is the rate the rateless code achieves at the same SNR,
	// for contrast.
	RatelessRate float64
}

// FixedRateSpinal evaluates the fixed-rate instantiation of the spinal code
// (§3: "It is straightforward to adapt the code to run at various fixed
// rates") at each SNR, alongside the rateless rate, quantifying what the
// feedback-free mode gives up. Trials shard across the sim runner, with
// decoders leased from the run's pool (core.FixedRateCode.DecodeWith).
func FixedRateSpinal(cfg SpinalConfig, snrsDB []float64, passes int) ([]FixedRatePoint, error) {
	cfg = cfg.withDefaults()
	if passes < 1 {
		return nil, fmt.Errorf("experiments: passes must be >= 1, got %d", passes)
	}
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	// One immutable codec (three ints of configuration) serves every trial
	// on every worker; decoders lease from the run's pool per trial.
	codec, err := core.NewFixedRate(params, passes, cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	nominalRate := codec.Rate()

	out := make([]FixedRatePoint, 0, len(snrsDB))
	for _, snr := range snrsDB {
		results, err := sim.Run(cfg.runner(), cfg.Trials, func(w *sim.Worker, trial int) (bool, error) {
			lease, err := w.Pool().Lease(params, cfg.BeamWidth)
			if err != nil {
				return false, err
			}
			defer lease.Release()
			msgSrc := rng.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			msg := core.RandomMessage(msgSrc, cfg.MessageBits)
			block, err := codec.Encode(msg)
			if err != nil {
				return false, err
			}
			chSrc := rng.New(cfg.Seed ^ (0xbb67ae8584caa73b * uint64(trial+1)))
			radio, err := impair.NewQuantizedAWGN(snr, cfg.ADCBits, chSrc)
			if err != nil {
				return false, err
			}
			rx := make([]complex128, len(block))
			radio.CorruptBlock(rx, block)
			got, err := codec.DecodeWith(lease.Dec, lease.Obs, rx)
			if err != nil {
				return false, err
			}
			return core.EqualMessages(got, msg, cfg.MessageBits), nil
		})
		if err != nil {
			return nil, err
		}
		var errCount stats.ErrorCounter
		for _, ok := range results {
			errCount.RecordFrameResult(ok, cfg.MessageBits)
		}
		ratelessPt, err := SpinalRateAtSNR(cfg, snr)
		if err != nil {
			return nil, err
		}
		out = append(out, FixedRatePoint{
			SNRdB:        snr,
			Passes:       passes,
			Rate:         nominalRate,
			Throughput:   nominalRate * (1 - errCount.FER()),
			FER:          errCount.FER(),
			RatelessRate: ratelessPt.Rate,
		})
	}
	return out, nil
}
