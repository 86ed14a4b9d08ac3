package experiments

import (
	"fmt"

	"spinal/internal/conv"
	"spinal/internal/fountain"
	"spinal/internal/harq"
	"spinal/internal/impair"
	"spinal/internal/ldpc"
	"spinal/internal/modem"
	"spinal/internal/rng"
	"spinal/internal/sim"
	"spinal/internal/stats"
)

// The fixed-rate baselines in this file all run their frames as independent
// trials on the sim runner: each frame derives its payload and channel noise
// from (seed, SNR, frame index), so results are bit-identical at any worker
// count and frames parallelize across CPUs.

// snrSeed mixes an SNR point into a seed, one stream per point.
func snrSeed(seed uint64, snrDB float64) uint64 {
	return seed ^ uint64(int64(snrDB*1000+1000000))
}

// frameSeed derives the per-frame stream from the per-point seed.
func frameSeed(pointSeed uint64, frame int) uint64 {
	return pointSeed ^ (0x9e3779b97f4a7c15 * uint64(frame+1))
}

// LDPCConfig describes one fixed-rate LDPC baseline: a 648-bit code at a
// given rate, sent over a given modulation, decoded with belief propagation.
type LDPCConfig struct {
	Rate       ldpc.Rate
	Modulation string
	Frames     int
	Iterations int
	Seed       uint64
	// TrialWorkers is the sim.Run worker-pool size frames are sharded
	// across; zero means GOMAXPROCS.
	TrialWorkers int
}

// Figure2LDPCConfigs returns the eight (rate, modulation) combinations
// plotted as LDPC baselines in Figure 2.
func Figure2LDPCConfigs() []LDPCConfig {
	combos := []struct {
		rate ldpc.Rate
		mod  string
	}{
		{ldpc.Rate12, "BPSK"},
		{ldpc.Rate12, "QAM-4"},
		{ldpc.Rate34, "QAM-4"},
		{ldpc.Rate12, "QAM-16"},
		{ldpc.Rate34, "QAM-16"},
		{ldpc.Rate23, "QAM-64"},
		{ldpc.Rate34, "QAM-64"},
		{ldpc.Rate56, "QAM-64"},
	}
	out := make([]LDPCConfig, len(combos))
	for i, c := range combos {
		out[i] = LDPCConfig{Rate: c.rate, Modulation: c.mod, Frames: 60, Iterations: ldpc.DefaultIterations, Seed: 0x1d9c}
	}
	return out
}

func (c LDPCConfig) withDefaults() LDPCConfig {
	if c.Modulation == "" {
		c.Modulation = "BPSK"
	}
	if c.Frames <= 0 {
		c.Frames = 60
	}
	if c.Iterations == 0 {
		c.Iterations = ldpc.DefaultIterations
	}
	if c.Seed == 0 {
		c.Seed = 0x1d9c
	}
	return c
}

// Label names the baseline the way the Figure 2 legend does.
func (c LDPCConfig) Label() string {
	return fmt.Sprintf("LDPC rate=%s %s", c.Rate, c.Modulation)
}

// ThroughputPoint is one point of a fixed-rate baseline curve.
type ThroughputPoint struct {
	SNRdB float64
	// Throughput is the delivered rate in information bits per symbol:
	// code rate x modulation bits/symbol x frame success probability. This is
	// the quantity a fixed-rate PHY configuration actually delivers, and what
	// the LDPC curves in Figure 2 flatten out to.
	Throughput float64
	// PeakRate is the zero-error ceiling (code rate x bits per symbol).
	PeakRate float64
	// FER is the frame error rate observed at this SNR.
	FER float64
	// Conf95 is the half-width of a 95% confidence interval on the mean
	// per-frame delivered rate.
	Conf95 float64
	// Frames is the number of simulated frames.
	Frames int
}

// frameTrial is the per-frame outcome of a fixed-rate baseline: the
// delivered information bits and channel uses of one frame.
type frameTrial struct {
	bits    int
	symbols int
	ok      bool
}

// throughputPoint folds per-frame outcomes, in frame order, into one curve
// point with aggregate throughput and a CI from the per-frame rate stream.
func throughputPoint(snrDB, peak float64, frames []frameTrial) ThroughputPoint {
	if len(frames) == 0 {
		return ThroughputPoint{SNRdB: snrDB, PeakRate: peak}
	}
	var rates stats.Running
	bits, symbols, frameErrors := 0, 0, 0
	for _, f := range frames {
		bits += f.bits
		symbols += f.symbols
		if !f.ok {
			frameErrors++
		}
		rate := 0.0
		if f.ok && f.symbols > 0 {
			rate = float64(f.bits) / float64(f.symbols)
		}
		rates.Add(rate)
	}
	throughput := 0.0
	if symbols > 0 {
		throughput = float64(bits) / float64(symbols)
	}
	return ThroughputPoint{
		SNRdB:      snrDB,
		Throughput: throughput,
		PeakRate:   peak,
		FER:        float64(frameErrors) / float64(len(frames)),
		Conf95:     rates.Conf95(),
		Frames:     len(frames),
	}
}

// LDPCThroughputCurve simulates a fixed-rate LDPC + modulation combination
// across the SNR sweep and reports its delivered throughput, reproducing one
// LDPC curve of Figure 2. Frames are sharded over the sim runner; each
// worker stashes one belief-propagation decoder and reuses it across its
// frames.
func LDPCThroughputCurve(cfg LDPCConfig, snrsDB []float64) ([]ThroughputPoint, error) {
	cfg = cfg.withDefaults()
	code, err := ldpc.NewWiFiLike(cfg.Rate)
	if err != nil {
		return nil, err
	}
	mod, err := modem.ByName(cfg.Modulation)
	if err != nil {
		return nil, err
	}
	if code.N()%mod.BitsPerSymbol() != 0 {
		return nil, fmt.Errorf("experiments: codeword length %d not a multiple of %d bits/symbol",
			code.N(), mod.BitsPerSymbol())
	}

	runner := sim.Runner{Workers: cfg.TrialWorkers}
	points := make([]ThroughputPoint, 0, len(snrsDB))
	symbolsPerFrame := code.N() / mod.BitsPerSymbol()
	peak := code.RateValue() * float64(mod.BitsPerSymbol())
	for _, snrDB := range snrsDB {
		pointSeed := snrSeed(cfg.Seed, snrDB)
		frames, err := sim.Run(runner, cfg.Frames, func(w *sim.Worker, frame int) (frameTrial, error) {
			decAny, err := w.Stash("ldpc-decoder", func() (any, error) {
				return ldpc.NewDecoder(code, cfg.Iterations)
			})
			if err != nil {
				return frameTrial{}, err
			}
			dec := decAny.(*ldpc.Decoder)

			src := rng.New(frameSeed(pointSeed, frame))
			ch, err := impair.NewAWGN(snrDB, src)
			if err != nil {
				return frameTrial{}, err
			}
			info := make([]byte, code.K())
			for i := range info {
				info[i] = byte(src.Intn(2))
			}
			cw, err := code.Encode(info)
			if err != nil {
				return frameTrial{}, err
			}
			syms, err := mod.Modulate(cw)
			if err != nil {
				return frameTrial{}, err
			}
			ch.CorruptBlock(syms, syms)
			llr := mod.Demodulate(syms, ch.NoiseVariance())
			res, err := dec.Decode(llr)
			if err != nil {
				return frameTrial{}, err
			}
			ok := res.Converged
			if ok {
				for i := range info {
					if res.Info[i] != info[i] {
						ok = false
						break
					}
				}
			}
			bits := 0
			if ok {
				bits = code.K()
			}
			return frameTrial{bits: bits, symbols: symbolsPerFrame, ok: ok}, nil
		})
		if err != nil {
			return nil, err
		}
		points = append(points, throughputPoint(snrDB, peak, frames))
	}
	return points, nil
}

// ConvConfig describes a convolutional-code baseline.
type ConvConfig struct {
	Rate       string
	Modulation string
	FrameBits  int
	Frames     int
	Seed       uint64
	// TrialWorkers is the sim.Run worker-pool size; zero means GOMAXPROCS.
	TrialWorkers int
}

func (c ConvConfig) withDefaults() ConvConfig {
	if c.Rate == "" {
		c.Rate = "1/2"
	}
	if c.Modulation == "" {
		c.Modulation = "BPSK"
	}
	if c.FrameBits == 0 {
		c.FrameBits = 288
	}
	if c.Frames <= 0 {
		c.Frames = 60
	}
	if c.Seed == 0 {
		c.Seed = 0xC09F
	}
	return c
}

// ConvThroughputCurve simulates a punctured convolutional code with Viterbi
// decoding across the SNR sweep, as an additional rated baseline. Frames are
// sharded over the sim runner with per-frame seeding.
func ConvThroughputCurve(cfg ConvConfig, snrsDB []float64) ([]ThroughputPoint, error) {
	cfg = cfg.withDefaults()
	code, err := conv.NewPunctured(cfg.Rate)
	if err != nil {
		return nil, err
	}
	mod, err := modem.ByName(cfg.Modulation)
	if err != nil {
		return nil, err
	}
	// Frame geometry is fixed by the configuration, not the noise: one
	// encode determines the padded symbol count every frame shares.
	probe, err := code.Encode(make([]byte, cfg.FrameBits))
	if err != nil {
		return nil, err
	}
	codedPerFrame := len(probe)
	for codedPerFrame%mod.BitsPerSymbol() != 0 {
		codedPerFrame++
	}
	symbolsPerFrame := codedPerFrame / mod.BitsPerSymbol()
	peak := float64(cfg.FrameBits) / float64(symbolsPerFrame)

	runner := sim.Runner{Workers: cfg.TrialWorkers}
	points := make([]ThroughputPoint, 0, len(snrsDB))
	for _, snrDB := range snrsDB {
		pointSeed := snrSeed(cfg.Seed, snrDB)
		frames, err := sim.Run(runner, cfg.Frames, func(w *sim.Worker, frame int) (frameTrial, error) {
			codecAny, err := w.Stash("conv-code", func() (any, error) {
				return conv.NewPunctured(cfg.Rate)
			})
			if err != nil {
				return frameTrial{}, err
			}
			codec := codecAny.(*conv.Code)

			src := rng.New(frameSeed(pointSeed, frame))
			ch, err := impair.NewAWGN(snrDB, src)
			if err != nil {
				return frameTrial{}, err
			}
			info := make([]byte, cfg.FrameBits)
			for i := range info {
				info[i] = byte(src.Intn(2))
			}
			coded, err := codec.Encode(info)
			if err != nil {
				return frameTrial{}, err
			}
			// Pad the coded stream to a whole number of symbols.
			for len(coded)%mod.BitsPerSymbol() != 0 {
				coded = append(coded, 0)
			}
			syms, err := mod.Modulate(coded)
			if err != nil {
				return frameTrial{}, err
			}
			ch.CorruptBlock(syms, syms)
			llr := mod.Demodulate(syms, ch.NoiseVariance())
			decoded, err := codec.Decode(llr[:codec.CodedLength(cfg.FrameBits)], cfg.FrameBits)
			if err != nil {
				return frameTrial{}, err
			}
			ok := true
			for i := range info {
				if decoded[i] != info[i] {
					ok = false
					break
				}
			}
			bits := 0
			if ok {
				bits = cfg.FrameBits
			}
			return frameTrial{bits: bits, symbols: symbolsPerFrame, ok: ok}, nil
		})
		if err != nil {
			return nil, err
		}
		points = append(points, throughputPoint(snrDB, peak, frames))
	}
	return points, nil
}

// HARQConfig describes the hybrid-ARQ (Chase combining) rateless comparator.
type HARQConfig struct {
	Rate       ldpc.Rate
	Modulation string
	MaxRounds  int
	Frames     int
	Seed       uint64
	// TrialWorkers is the sim.Run worker-pool size; zero means GOMAXPROCS.
	TrialWorkers int
}

func (c HARQConfig) withDefaults() HARQConfig {
	if c.Modulation == "" {
		c.Modulation = "QAM-16"
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 8
	}
	if c.Frames <= 0 {
		c.Frames = 40
	}
	if c.Seed == 0 {
		c.Seed = 0x4a7
	}
	return c
}

// HARQThroughputCurve measures the throughput of LDPC hybrid ARQ with Chase
// combining across the SNR sweep: a conventional way to obtain rateless
// behaviour from a fixed code, with whole-codeword granularity. Compare with
// the spinal curve, whose granularity is a single symbol. Frames are sharded
// over the sim runner; each worker stashes one HARQ scheme instance.
func HARQThroughputCurve(cfg HARQConfig, snrsDB []float64) ([]ThroughputPoint, error) {
	cfg = cfg.withDefaults()
	// Validate the configuration once, up front, rather than inside trials.
	probe, err := harq.New(harq.Config{Rate: cfg.Rate, Modulation: cfg.Modulation, MaxRounds: cfg.MaxRounds})
	if err != nil {
		return nil, err
	}
	peak := float64(probe.InfoBits()) / float64(probe.SymbolsPerRound())

	runner := sim.Runner{Workers: cfg.TrialWorkers}
	points := make([]ThroughputPoint, 0, len(snrsDB))
	for _, snrDB := range snrsDB {
		pointSeed := snrSeed(cfg.Seed, snrDB)
		frames, err := sim.Run(runner, cfg.Frames, func(w *sim.Worker, frame int) (frameTrial, error) {
			schemeAny, err := w.Stash("harq-scheme", func() (any, error) {
				return harq.New(harq.Config{Rate: cfg.Rate, Modulation: cfg.Modulation, MaxRounds: cfg.MaxRounds})
			})
			if err != nil {
				return frameTrial{}, err
			}
			scheme := schemeAny.(*harq.Scheme)

			src := rng.New(frameSeed(pointSeed, frame))
			ch, err := impair.NewAWGN(snrDB, src)
			if err != nil {
				return frameTrial{}, err
			}
			res, err := scheme.RunFrame(ch.Corrupt, ch.NoiseVariance(), src)
			if err != nil {
				return frameTrial{}, err
			}
			bits := 0
			if res.Delivered {
				bits = scheme.InfoBits()
			}
			return frameTrial{bits: bits, symbols: res.Symbols, ok: res.Delivered}, nil
		})
		if err != nil {
			return nil, err
		}
		points = append(points, throughputPoint(snrDB, peak, frames))
	}
	return points, nil
}

// OverheadPoint is one point of the fountain-code (LT) overhead experiment.
type OverheadPoint struct {
	ErasureProb float64
	// Overhead is the average number of received (not erased) symbols needed
	// to decode, divided by k. An ideal fountain code has overhead 1.
	Overhead float64
	// SentPerBlock is the average number of transmitted symbols (including
	// erased ones) divided by k.
	SentPerBlock float64
	Trials       int
}

// FountainConfig describes the LT-code overhead experiment: k source blocks
// of BlockSize bytes streamed over binary erasure channels with the given
// erasure probabilities.
type FountainConfig struct {
	// K is the number of source blocks per generation.
	K int
	// BlockSize is the payload bytes per block.
	BlockSize int
	// Trials is the number of generations simulated per erasure point.
	Trials int
	// Erasures lists the BEC erasure probabilities to sweep.
	Erasures []float64
	Seed     uint64
	// TrialWorkers is the sim.Run worker-pool size; zero means GOMAXPROCS.
	TrialWorkers int
}

func (c FountainConfig) withDefaults() FountainConfig {
	if c.K == 0 {
		c.K = 256
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
	if len(c.Erasures) == 0 {
		c.Erasures = []float64{0, 0.1, 0.2, 0.3, 0.5}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fountainTrial is the per-generation outcome of the LT experiment.
type fountainTrial struct {
	received int
	sent     int
}

// FountainOverhead measures the reception overhead of the LT baseline over a
// BEC with the configured erasure probabilities — the related-work comparator
// of §2 (Raptor/LT codes are the classical rateless solution for erasures).
func FountainOverhead(cfg FountainConfig) ([]OverheadPoint, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 || cfg.BlockSize < 1 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiments: invalid fountain experiment parameters")
	}
	runner := sim.Runner{Workers: cfg.TrialWorkers}
	out := make([]OverheadPoint, 0, len(cfg.Erasures))
	for _, p := range cfg.Erasures {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("experiments: erasure probability %v out of range", p)
		}
		trials, err := sim.Run(runner, cfg.Trials, func(w *sim.Worker, trial int) (fountainTrial, error) {
			src := rng.New(cfg.Seed ^ uint64(trial+1)*0x9e3779b97f4a7c15)
			lt, err := fountain.NewLT(cfg.K, cfg.BlockSize, cfg.Seed+uint64(trial))
			if err != nil {
				return fountainTrial{}, err
			}
			source := make([][]byte, cfg.K)
			for i := range source {
				source[i] = make([]byte, cfg.BlockSize)
				src.Bytes(source[i])
			}
			dec := fountain.NewDecoder(lt)
			sent, received := 0, 0
			for id := uint32(0); !dec.Done() && sent < 100*cfg.K; id++ {
				sent++
				if src.Bernoulli(p) {
					continue // erased
				}
				sym, err := lt.EncodeSymbol(id, source)
				if err != nil {
					return fountainTrial{}, err
				}
				if err := dec.AddSymbol(id, sym); err != nil {
					return fountainTrial{}, err
				}
				received++
			}
			return fountainTrial{received: received, sent: sent}, nil
		})
		if err != nil {
			return nil, err
		}
		var totalReceived, totalSent float64
		for _, t := range trials {
			totalReceived += float64(t.received)
			totalSent += float64(t.sent)
		}
		out = append(out, OverheadPoint{
			ErasureProb:  p,
			Overhead:     totalReceived / float64(cfg.Trials) / float64(cfg.K),
			SentPerBlock: totalSent / float64(cfg.Trials) / float64(cfg.K),
			Trials:       cfg.Trials,
		})
	}
	return out, nil
}
