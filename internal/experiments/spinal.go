// Package experiments regenerates the paper's evaluation artifacts: the
// Figure 2 rate-versus-SNR curves (spinal code, Shannon bound,
// finite-blocklength bound, LDPC baselines) and the ablations implied by the
// text (beam width, puncturing, ADC depth, constellation mapping, BSC
// behaviour per Theorem 2). Each experiment is exposed as a plain function
// returning result rows — shared by the benchmarks and the tests — and
// registered as a sim.Scenario (see scenarios.go), which is how the
// spinalsim command discovers and runs it.
//
// Every trial loop in the package runs on the sim.Run sharded runner:
// trials derive their randomness from the trial index, decoders are leased
// from a shared core.DecoderPool, and per-point statistics are folded in
// trial order, so results are bit-identical at any worker count.
package experiments

import (
	"fmt"

	"spinal/internal/capacity"
	"spinal/internal/channel"
	"spinal/internal/constellation"
	"spinal/internal/core"
	"spinal/internal/impair"
	"spinal/internal/rng"
	"spinal/internal/sim"
	"spinal/internal/stats"
)

// SpinalConfig describes one spinal-code operating point, defaulting to the
// configuration of Figure 2: 24-bit messages, k = 8, c = 10, B = 16, 14-bit
// ADC, the linear constellation of Eq. 3 and the striped (punctured)
// transmission schedule.
type SpinalConfig struct {
	MessageBits int
	K           int
	C           int
	BeamWidth   int
	ADCBits     int
	Trials      int
	Seed        uint64
	Mapper      string // "linear", "uniform" or "gaussian"
	Schedule    string // "striped" or "sequential"
	MaxPasses   int
	// TrialWorkers is the sim.Run worker-pool size trials are sharded
	// across. Zero means GOMAXPROCS. Results are bit-identical at any
	// setting.
	TrialWorkers int
	// Search is the decoder's tree-search strategy (the zero value is the
	// exact beam search; see core.SearchMode). The frontier scenario
	// measures the work the approximate mode saves.
	Search core.SearchMode
	// Pool optionally shares a decoder pool across calls (e.g. across the
	// points of a sweep); nil lets each call pool privately.
	Pool *core.DecoderPool
}

// Figure2Config returns the code configuration of Figure 2 in the paper,
// with 100 trials per point: the count spinalsim runs and TestFigure2Record
// pins.
func Figure2Config() SpinalConfig {
	return SpinalConfig{
		MessageBits: 24,
		K:           8,
		C:           10,
		BeamWidth:   16,
		ADCBits:     14,
		Trials:      100,
		Seed:        core.DefaultSeed,
		Mapper:      "linear",
		Schedule:    "striped",
		MaxPasses:   600,
	}
}

func (c SpinalConfig) withDefaults() SpinalConfig {
	d := Figure2Config()
	if c.MessageBits == 0 {
		c.MessageBits = d.MessageBits
	}
	if c.K == 0 {
		c.K = d.K
	}
	if c.C == 0 {
		c.C = d.C
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = d.BeamWidth
	}
	if c.ADCBits == 0 {
		c.ADCBits = d.ADCBits
	}
	if c.Trials == 0 {
		c.Trials = d.Trials
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Mapper == "" {
		c.Mapper = d.Mapper
	}
	if c.Schedule == "" {
		c.Schedule = d.Schedule
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = d.MaxPasses
	}
	return c
}

// params builds the core parameters for the configuration.
func (c SpinalConfig) params() (core.Params, error) {
	mapper, err := constellation.ByName(c.Mapper, c.C)
	if err != nil {
		return core.Params{}, err
	}
	p := core.Params{
		K:           c.K,
		C:           c.C,
		MessageBits: c.MessageBits,
		Seed:        c.Seed,
		Mapper:      mapper,
	}
	return p, p.Validate()
}

// runner builds the trial runner for the configuration.
func (c SpinalConfig) runner() sim.Runner {
	return sim.Runner{Workers: c.TrialWorkers, Pool: c.Pool}
}

// RatePoint is one point of a rate-versus-SNR curve.
type RatePoint struct {
	SNRdB float64
	// Rate is the aggregate achieved rate in bits per symbol (total message
	// bits divided by total symbols, the y-axis of Figure 2).
	Rate float64
	// Capacity is the Shannon capacity at this SNR, for reference.
	Capacity float64
	// Conf95 is the half-width of a 95% confidence interval on the
	// per-message rate mean.
	Conf95 float64
	// Failures counts messages that were not decoded within the pass budget.
	Failures int
	// Trials is the number of messages simulated.
	Trials int
}

// SpinalRateCurve measures the rate achieved by the practical spinal decoder
// across the given SNR points (in dB), reproducing the spinal curve of
// Figure 2. Trials are sharded over the sim runner; results are
// deterministic for a fixed configuration because every trial derives its
// own random streams from the configured seed.
func SpinalRateCurve(cfg SpinalConfig, snrsDB []float64) ([]RatePoint, error) {
	cfg = cfg.withDefaults()
	if _, err := cfg.params(); err != nil {
		return nil, err
	}
	if cfg.Pool == nil {
		// One pool for the whole sweep, so workers reuse decoders across
		// points instead of rebuilding per SNR.
		cfg.Pool = core.NewDecoderPool(core.DefaultDecoderPoolCapacity)
		defer cfg.Pool.Drain()
	}
	points := make([]RatePoint, len(snrsDB))
	for i, snr := range snrsDB {
		pt, err := SpinalRateAtSNR(cfg, snr)
		if err != nil {
			return nil, err
		}
		points[i] = pt
	}
	return points, nil
}

// genieGrid is where a spinal rate trial attempts a decode: after every
// symbol through the first two passes (where each extra symbol changes the
// rate substantially), then after every pass, none below the noiseless
// bound of 2c coded bits per symbol. With the genie verifier the session
// stops at the first grid point that decodes, which is the paper's genie
// ("the receiver informs the sender as soon as it is able to fully
// decode") measured at this grid's granularity.
var genieGrid = core.AttemptAdaptive{FinePasses: 2}

// SpinalRateAtSNR measures the achieved rate at a single SNR point. Each
// trial is one rateless session over the genie grid (see runTrials).
func SpinalRateAtSNR(cfg SpinalConfig, snrDB float64) (RatePoint, error) {
	cfg = cfg.withDefaults()
	results, err := runTrials(cfg, snrDB, genieGrid, cfg.Search)
	if err != nil {
		return RatePoint{}, err
	}

	var meter stats.RateMeter
	failures := 0
	for _, r := range results {
		bits := 0
		if r.ok {
			bits = cfg.MessageBits
		} else {
			failures++
		}
		meter.Record(bits, r.uses)
	}
	return RatePoint{
		SNRdB:    snrDB,
		Rate:     meter.Rate(),
		Capacity: capacity.AWGNdB(snrDB),
		Conf95:   meter.PerMessage().Conf95(),
		Failures: failures,
		Trials:   cfg.Trials,
	}, nil
}

// trialResult is the outcome of one rateless trial.
type trialResult struct {
	uses  int
	nodes int64
	saved int64
	ok    bool
}

// runTrials runs cfg.Trials rateless transmissions at one SNR on the
// sharded trial runner. Each trial sends its own seeded message through its
// own seeded quantized AWGN radio in one core.RunChannelSession, which
// leases its decoder from the run's pool, attempts a decode where attempts
// says, and stops when the genie verifier accepts or MaxPasses passes are
// spent. Message and noise derive from the configured seed and the trial
// index, so every attempt policy and search mode faces the same symbol
// streams.
func runTrials(cfg SpinalConfig, snrDB float64, attempts core.AttemptPolicy, search core.SearchMode) ([]trialResult, error) {
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	sched, err := scheduleFor(cfg, params.NumSegments())
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg.runner(), cfg.Trials, func(w *sim.Worker, trial int) (trialResult, error) {
		msg := core.RandomMessage(rng.New(cfg.Seed^(0x9e3779b97f4a7c15*uint64(trial+1))), cfg.MessageBits)
		radio, err := impair.NewQuantizedAWGN(snrDB, cfg.ADCBits, rng.New(cfg.Seed^(0xbb67ae8584caa73b*uint64(trial+1))))
		if err != nil {
			return trialResult{}, err
		}
		out, err := core.RunChannelSession(core.SessionConfig{
			Params:     params,
			BeamWidth:  cfg.BeamWidth,
			Schedule:   sched,
			Attempts:   attempts,
			MaxSymbols: cfg.MaxPasses * params.NumSegments(),
			Search:     search,
			Pool:       w.Pool(),
		}, msg, radio, core.GenieVerifier(msg, cfg.MessageBits))
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{uses: out.ChannelUses, nodes: out.NodesExpanded, saved: out.NodesSaved, ok: out.Success}, nil
	})
}

// scheduleFor builds the configured transmission schedule.
func scheduleFor(cfg SpinalConfig, nseg int) (core.Schedule, error) {
	switch cfg.Schedule {
	case "striped", "":
		return core.NewStripedSchedule(nseg, 8)
	case "sequential":
		return core.NewSequentialSchedule(nseg)
	default:
		return nil, fmt.Errorf("experiments: unknown schedule %q", cfg.Schedule)
	}
}

// BeamPoint is one point of the beam-width (scale-down) ablation.
type BeamPoint struct {
	BeamWidth int
	RatePoint
}

// BeamWidthSweep measures the achieved rate at one SNR for several decoder
// beam widths, quantifying the graceful scale-down property of §3.2.
func BeamWidthSweep(cfg SpinalConfig, snrDB float64, beams []int) ([]BeamPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]BeamPoint, 0, len(beams))
	for _, b := range beams {
		if b < 1 {
			return nil, fmt.Errorf("experiments: beam width %d invalid", b)
		}
		c := cfg
		c.BeamWidth = b
		pt, err := SpinalRateAtSNR(c, snrDB)
		if err != nil {
			return nil, err
		}
		out = append(out, BeamPoint{BeamWidth: b, RatePoint: pt})
	}
	return out, nil
}

// ADCPoint is one point of the quantization ablation.
type ADCPoint struct {
	Bits int
	RatePoint
}

// QuantizationSweep measures the achieved rate at one SNR as the receiver ADC
// resolution varies, validating the paper's choice of 14 bits per dimension.
func QuantizationSweep(cfg SpinalConfig, snrDB float64, bits []int) ([]ADCPoint, error) {
	cfg = cfg.withDefaults()
	out := make([]ADCPoint, 0, len(bits))
	for _, b := range bits {
		c := cfg
		c.ADCBits = b
		pt, err := SpinalRateAtSNR(c, snrDB)
		if err != nil {
			return nil, err
		}
		out = append(out, ADCPoint{Bits: b, RatePoint: pt})
	}
	return out, nil
}

// MapperComparison measures rate curves for several constellation mappings
// (the §6 future-work item on alternative mappings).
func MapperComparison(cfg SpinalConfig, snrsDB []float64, mappers []string) (map[string][]RatePoint, error) {
	cfg = cfg.withDefaults()
	out := make(map[string][]RatePoint, len(mappers))
	for _, m := range mappers {
		c := cfg
		c.Mapper = m
		curve, err := SpinalRateCurve(c, snrsDB)
		if err != nil {
			return nil, err
		}
		out[m] = curve
	}
	return out, nil
}

// PuncturingComparison contrasts the punctured (striped) schedule against the
// plain sequential schedule, demonstrating the §3.1 claim that puncturing
// lifts the maximum rate above k bits/symbol at high SNR.
func PuncturingComparison(cfg SpinalConfig, snrsDB []float64) (punctured, sequential []RatePoint, err error) {
	cfg = cfg.withDefaults()
	p := cfg
	p.Schedule = "striped"
	punctured, err = SpinalRateCurve(p, snrsDB)
	if err != nil {
		return nil, nil, err
	}
	s := cfg
	s.Schedule = "sequential"
	sequential, err = SpinalRateCurve(s, snrsDB)
	if err != nil {
		return nil, nil, err
	}
	return punctured, sequential, nil
}

// Theorem1Point compares a measured rate with the Theorem 1 guarantee.
type Theorem1Point struct {
	SNRdB      float64
	Rate       float64
	Guarantee  float64
	Capacity   float64
	GapToCap   float64
	MeetsBound bool
}

// Theorem1Gap measures the empirical rate across SNRs and reports it next to
// the Theorem 1 lower bound C − ½log2(πe/6) and the Shannon capacity.
func Theorem1Gap(cfg SpinalConfig, snrsDB []float64) ([]Theorem1Point, error) {
	curve, err := SpinalRateCurve(cfg, snrsDB)
	if err != nil {
		return nil, err
	}
	out := make([]Theorem1Point, len(curve))
	for i, pt := range curve {
		guarantee := capacity.Theorem1Rate(pt.SNRdB)
		out[i] = Theorem1Point{
			SNRdB:      pt.SNRdB,
			Rate:       pt.Rate,
			Guarantee:  guarantee,
			Capacity:   pt.Capacity,
			GapToCap:   pt.Capacity - pt.Rate,
			MeetsBound: pt.Rate >= guarantee*0.9,
		}
	}
	return out, nil
}

// BSCPoint is one point of the BSC (Theorem 2) experiment.
type BSCPoint struct {
	P        float64
	Rate     float64
	Capacity float64
	// Conf95 is the half-width of a 95% confidence interval on the
	// per-message rate mean.
	Conf95   float64
	Failures int
	Trials   int
}

// bscTrial is the per-trial outcome of the BSC measurement.
type bscTrial struct {
	uses int
	ok   bool
}

// SpinalBSCCurve measures the rate achieved by the spinal code over binary
// symmetric channels with the given crossover probabilities, the empirical
// counterpart of Theorem 2. Trials are sharded over the sim runner, with
// session decoders leased from the run's pool.
func SpinalBSCCurve(cfg SpinalConfig, crossovers []float64) ([]BSCPoint, error) {
	cfg = cfg.withDefaults()
	params := core.Params{K: cfg.K, C: cfg.C, MessageBits: cfg.MessageBits, Seed: cfg.Seed}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	out := make([]BSCPoint, 0, len(crossovers))
	for _, p := range crossovers {
		results, err := sim.Run(cfg.runner(), cfg.Trials, func(w *sim.Worker, trial int) (bscTrial, error) {
			msgSrc := rng.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			msg := core.RandomMessage(msgSrc, cfg.MessageBits)
			chSrc := rng.New(cfg.Seed ^ (0xbb67ae8584caa73b * uint64(trial+1)))
			bsc, err := channel.NewBSC(p, chSrc)
			if err != nil {
				return bscTrial{}, err
			}
			sessionCfg := core.SessionConfig{
				Params:     params,
				BeamWidth:  cfg.BeamWidth,
				Attempts:   core.AttemptEveryPass{},
				MaxSymbols: cfg.MaxPasses * params.NumSegments(),
				Search:     cfg.Search,
				Pool:       w.Pool(),
			}
			res, err := core.RunBitChannelSession(sessionCfg, msg, bsc, core.GenieVerifier(msg, cfg.MessageBits))
			if err != nil {
				return bscTrial{}, err
			}
			return bscTrial{uses: res.ChannelUses, ok: res.Success}, nil
		})
		if err != nil {
			return nil, err
		}
		var meter stats.RateMeter
		failures := 0
		for _, r := range results {
			bits := 0
			if r.ok {
				bits = cfg.MessageBits
			} else {
				failures++
			}
			meter.Record(bits, r.uses)
		}
		out = append(out, BSCPoint{
			P:        p,
			Rate:     meter.Rate(),
			Capacity: capacity.BSC(p),
			Conf95:   meter.PerMessage().Conf95(),
			Failures: failures,
			Trials:   cfg.Trials,
		})
	}
	return out, nil
}
