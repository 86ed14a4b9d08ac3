// Package adapt implements the status-quo baseline the paper argues against
// in §1: reactive bit-rate adaptation over a table of fixed PHY
// configurations (LDPC code rate x modulation), driven by a delayed and noisy
// SNR estimate. It also runs the rateless spinal code over exactly the same
// time-varying channel, so experiments can compare "measure, pick a rate,
// hope" against "just keep sending symbols until acknowledged".
package adapt

import (
	"fmt"

	"spinal/internal/core"
	"spinal/internal/fading"
	"spinal/internal/impair"
	"spinal/internal/ldpc"
	"spinal/internal/mathx"
	"spinal/internal/modem"
	"spinal/internal/rng"
)

// PHYConfig is one row of a conventional rate-adaptation table.
type PHYConfig struct {
	// Rate is the LDPC code rate of this configuration.
	Rate ldpc.Rate
	// Modulation names the constellation (see modem.ByName).
	Modulation string
	// MinSNRdB is the threshold above which the configuration is considered
	// usable by the threshold policy.
	MinSNRdB float64
}

// BitsPerSymbol returns the peak spectral efficiency of the configuration.
func (p PHYConfig) BitsPerSymbol() (float64, error) {
	mod, err := modem.ByName(p.Modulation)
	if err != nil {
		return 0, err
	}
	return p.Rate.Value() * float64(mod.BitsPerSymbol()), nil
}

// Label names the configuration in experiment output.
func (p PHYConfig) Label() string {
	return fmt.Sprintf("%s %s", p.Rate, p.Modulation)
}

// DefaultTable returns an 802.11-style adaptation table built from the
// Figure 2 baseline configurations, ordered from most robust to fastest. The
// thresholds are the SNRs at which each configuration's frame error rate
// drops below a few percent for the codes in internal/ldpc.
func DefaultTable() []PHYConfig {
	return []PHYConfig{
		{Rate: ldpc.Rate12, Modulation: "BPSK", MinSNRdB: 2},
		{Rate: ldpc.Rate12, Modulation: "QAM-4", MinSNRdB: 5},
		{Rate: ldpc.Rate34, Modulation: "QAM-4", MinSNRdB: 8.5},
		{Rate: ldpc.Rate12, Modulation: "QAM-16", MinSNRdB: 11.5},
		{Rate: ldpc.Rate34, Modulation: "QAM-16", MinSNRdB: 15.5},
		{Rate: ldpc.Rate23, Modulation: "QAM-64", MinSNRdB: 19.5},
		{Rate: ldpc.Rate34, Modulation: "QAM-64", MinSNRdB: 21.5},
		{Rate: ldpc.Rate56, Modulation: "QAM-64", MinSNRdB: 24},
	}
}

// Policy selects a configuration index given the sender's SNR estimate.
type Policy interface {
	// Choose returns the index into table of the configuration to use for the
	// next frame. It must return a valid index (fall back to the most robust
	// configuration rather than refusing to send).
	Choose(estimateDB float64, table []PHYConfig) int
	// Name identifies the policy in experiment output.
	Name() string
}

// ThresholdPolicy picks the fastest configuration whose threshold is at or
// below the estimate minus a safety margin — the standard SNR-based rate
// selection the paper's related work surveys.
type ThresholdPolicy struct {
	// MarginDB is subtracted from the estimate before consulting the table; a
	// positive margin trades throughput for robustness against estimate
	// error.
	MarginDB float64
}

// Choose implements Policy.
func (p ThresholdPolicy) Choose(estimateDB float64, table []PHYConfig) int {
	eff := estimateDB - p.MarginDB
	best := 0
	for i, cfg := range table {
		if eff >= cfg.MinSNRdB {
			best = i
		}
	}
	return best
}

// Name implements Policy.
func (p ThresholdPolicy) Name() string {
	return fmt.Sprintf("threshold(margin=%.1fdB)", p.MarginDB)
}

// Result summarizes one scheme's run over a channel trace.
type Result struct {
	// Scheme names what was run ("rate-adaptation" or "spinal-rateless").
	Scheme string
	// DeliveredBits counts information bits confirmed delivered.
	DeliveredBits int
	// Symbols is the number of channel symbols consumed.
	Symbols int
	// Throughput is DeliveredBits / Symbols.
	Throughput float64
	// Frames is the number of frames (or messages) attempted.
	Frames int
	// FrameErrors counts frames (or messages) that failed.
	FrameErrors int
}

// Config drives a comparison run.
type Config struct {
	// Trace is the time-varying channel; required.
	Trace fading.Trace
	// SymbolBudget is the number of channel uses each scheme may spend.
	SymbolBudget int
	// EstimateDelay is the age, in symbols, of the SNR estimate available to
	// the rate-adaptation policy.
	EstimateDelay int
	// EstimateErrDB is the standard deviation of the SNR measurement error.
	EstimateErrDB float64
	// Policy picks configurations for the adaptive scheme; nil selects
	// ThresholdPolicy{MarginDB: 1}.
	Policy Policy
	// Table is the adaptation table; nil selects DefaultTable.
	Table []PHYConfig
	// MessageBits is the spinal packet size; zero selects 288.
	MessageBits int
	// BeamWidth is the spinal decoder beam; zero selects 16.
	BeamWidth int
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Trace == nil {
		return c, fmt.Errorf("adapt: nil trace")
	}
	if c.SymbolBudget < 1000 {
		c.SymbolBudget = 20000
	}
	if c.Policy == nil {
		c.Policy = ThresholdPolicy{MarginDB: 1}
	}
	if len(c.Table) == 0 {
		c.Table = DefaultTable()
	}
	if c.MessageBits == 0 {
		c.MessageBits = 288
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = 16
	}
	return c, nil
}

// RunAdaptive simulates SNR-driven rate adaptation over the trace: before
// each 648-bit frame the sender consults its (delayed, noisy) SNR estimate,
// picks a configuration, and transmits; the receiver decodes with belief
// propagation. The run stops when the symbol budget is exhausted.
func RunAdaptive(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ch, err := impair.NewTraceNoise(cfg.Trace, rng.New(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	est, err := fading.NewEstimator(cfg.Trace, cfg.EstimateDelay, cfg.EstimateErrDB, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed + 3)

	// Pre-build the codes, decoders and modulations of every table entry.
	type entry struct {
		code *ldpc.Code
		dec  *ldpc.Decoder
		mod  modem.Modulation
	}
	entries := make([]entry, len(cfg.Table))
	for i, pc := range cfg.Table {
		code, err := ldpc.NewWiFiLike(pc.Rate)
		if err != nil {
			return nil, err
		}
		dec, err := ldpc.NewDecoder(code, ldpc.DefaultIterations)
		if err != nil {
			return nil, err
		}
		mod, err := modem.ByName(pc.Modulation)
		if err != nil {
			return nil, err
		}
		entries[i] = entry{code: code, dec: dec, mod: mod}
	}

	res := &Result{Scheme: "rate-adaptation"}
	for res.Symbols < cfg.SymbolBudget {
		idx := cfg.Policy.Choose(est.Estimate(res.Symbols), cfg.Table)
		if idx < 0 || idx >= len(entries) {
			return nil, fmt.Errorf("adapt: policy chose invalid configuration %d", idx)
		}
		e := entries[idx]

		info := make([]byte, e.code.K())
		for i := range info {
			info[i] = byte(src.Intn(2))
		}
		cw, err := e.code.Encode(info)
		if err != nil {
			return nil, err
		}
		syms, err := e.mod.Modulate(cw)
		if err != nil {
			return nil, err
		}
		// Transmit through the fading channel; the decoder is given the noise
		// variance of the estimated SNR (it cannot know the instantaneous
		// truth either).
		rx := make([]complex128, len(syms))
		ch.CorruptBlock(rx, syms)
		assumedSigma2 := 1 / mathx.DBToLinear(est.Estimate(res.Symbols+len(syms)))
		llr := e.mod.Demodulate(rx, assumedSigma2)
		out, err := e.dec.Decode(llr)
		if err != nil {
			return nil, err
		}
		ok := out.Converged
		if ok {
			for i := range info {
				if out.Info[i] != info[i] {
					ok = false
					break
				}
			}
		}
		res.Frames++
		res.Symbols += len(syms)
		if ok {
			res.DeliveredBits += e.code.K()
		} else {
			res.FrameErrors++
		}
	}
	if res.Symbols > 0 {
		res.Throughput = float64(res.DeliveredBits) / float64(res.Symbols)
	}
	return res, nil
}

// RunRateless runs the spinal code over the same kind of trace: packets are
// sent ratelessly (genie-terminated, as in Figure 2) back to back until the
// symbol budget is exhausted.
func RunRateless(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ch, err := impair.NewTraceNoise(cfg.Trace, rng.New(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	params := core.Params{K: 8, C: 10, MessageBits: cfg.MessageBits, Seed: core.DefaultSeed ^ cfg.Seed}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	sched, err := core.NewStripedSchedule(params.NumSegments(), 8)
	if err != nil {
		return nil, err
	}
	msgSrc := rng.New(cfg.Seed + 4)
	// One decode history spans the messages, as the link keeps one per flow.
	var hist core.DecodeHistory

	res := &Result{Scheme: "spinal-rateless"}
	for res.Symbols < cfg.SymbolBudget {
		msg := core.RandomMessage(msgSrc, cfg.MessageBits)
		session := core.SessionConfig{
			Params:     params,
			BeamWidth:  cfg.BeamWidth,
			Schedule:   sched,
			Attempts:   &hist,
			MaxSymbols: 40 * params.NumSegments(),
		}
		out, err := core.RunChannelSession(session, msg, ch, core.GenieVerifier(msg, cfg.MessageBits))
		if err != nil {
			return nil, err
		}
		res.Frames++
		res.Symbols += out.ChannelUses
		if out.Success {
			res.DeliveredBits += cfg.MessageBits
		} else {
			res.FrameErrors++
		}
	}
	if res.Symbols > 0 {
		res.Throughput = float64(res.DeliveredBits) / float64(res.Symbols)
	}
	return res, nil
}

// Compare runs both schemes over the same trace and returns their results.
func Compare(cfg Config) (adaptive, rateless *Result, err error) {
	adaptive, err = RunAdaptive(cfg)
	if err != nil {
		return nil, nil, err
	}
	rateless, err = RunRateless(cfg)
	if err != nil {
		return nil, nil, err
	}
	return adaptive, rateless, nil
}
