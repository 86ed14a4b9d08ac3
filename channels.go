package spinal

import (
	"fmt"
	"strings"

	"spinal/internal/channel"
	"spinal/internal/fading"
	"spinal/internal/impair"
	"spinal/internal/mathx"
	"spinal/internal/rng"
)

// This file defines the channel API: channels are interfaces that corrupt
// whole blocks of symbols and expose their metadata. Every symbol channel the
// constructors return is an impairment pipeline (internal/impair), so a
// hand-built channel and the equivalent spec string share one implementation.

// Channel is a symbol channel: a model of everything between the encoder's
// constellation points and the decoder's observations. Channels are
// deliberately block-oriented — the rateless loop of the paper is
// pass-structured, with symbols arriving a striped pass at a time — and
// stateful: a time-varying channel advances its fading or noise process by
// one step per symbol, in slice order, so a block call is indistinguishable
// from the equivalent sequence of per-symbol uses.
//
// Channels are not safe for concurrent use; each transmission drives its own.
type Channel interface {
	// CorruptBlock writes the received value of each transmitted symbol
	// src[i] into dst[i]. dst and src must have equal length and may alias
	// (in-place corruption is allowed).
	CorruptBlock(dst, src []complex128)
	// NoiseVariance reports the total complex noise variance the channel
	// applies around its current state: the fixed sigma² of a static AWGN
	// channel, and the instantaneous value the fading process or trace
	// dictates for the next symbol of a time-varying channel.
	NoiseVariance() float64
	// Name identifies the channel in experiment output.
	Name() string
}

// BitChannel is the binary counterpart of Channel for codes transmitted one
// coded bit per channel use (the paper's BSC variant): dst[i] receives the
// possibly corrupted coded bit src[i].
type BitChannel interface {
	// CorruptBits writes the received value of each transmitted bit src[i]
	// into dst[i]. dst and src must have equal length and may alias.
	CorruptBits(dst, src []byte)
	// Name identifies the channel in experiment output.
	Name() string
}

// Erased is the value a binary erasure channel reports for an erased bit.
const Erased = channel.Erased

// pipeline returns a built impairment pipeline as a Channel (and never a
// non-nil Channel holding a nil pipeline).
func pipeline(p *impair.Pipeline, err error) (Channel, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NewAWGN returns an additive white Gaussian noise channel at the given SNR
// (dB, relative to the unit-energy constellation), with a deterministic noise
// stream derived from seed.
func NewAWGN(snrDB float64, seed uint64) (Channel, error) {
	return pipeline(impair.NewAWGN(snrDB, rng.New(seed)))
}

// NewQuantizedAWGN returns the receive path of the paper's evaluation: AWGN
// followed by an ADC quantizing each dimension to adcBits.
func NewQuantizedAWGN(snrDB float64, adcBits int, seed uint64) (Channel, error) {
	return pipeline(impair.NewQuantizedAWGN(snrDB, adcBits, rng.New(seed)))
}

// NewRayleigh returns a Rayleigh block-fading channel: the SNR is the
// average scaled by an exponential power gain (a Rayleigh envelope) redrawn
// every blockLen symbols, as seen by a coherent receiver. This is the
// fast-fading regime the paper's ratelessness is designed for. It is the
// pipeline "rayleigh(avg=…,tc=…)" of NewImpairmentPipeline, and
// NoiseVariance reports the current block's variance.
func NewRayleigh(avgSNRdB float64, blockLen int, seed uint64) (Channel, error) {
	return NewImpairmentPipeline(fmt.Sprintf("rayleigh(avg=%g,tc=%d)", avgSNRdB, blockLen), seed)
}

// NewBSC returns a binary symmetric channel with crossover probability p, for
// the one-coded-bit-per-use variant of the code (see Code.TransmitBitsOver).
func NewBSC(p float64, seed uint64) (BitChannel, error) {
	ch, err := channel.NewBSC(p, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// NewBEC returns a binary erasure channel with erasure probability p; erased
// positions carry the value Erased. The spinal bit decoder consumes hard 0/1
// decisions only, so a BEC is not usable with TransmitBitsOver directly — it
// is exposed for fountain-style experiments and custom receive pipelines that
// handle erasures themselves.
func NewBEC(p float64, seed uint64) (BitChannel, error) {
	ch, err := channel.NewBEC(p, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// Trace reports the instantaneous channel SNR (in dB) at a given symbol
// index — the time-varying channel quality a rateless code absorbs without
// ever estimating it. Traces are deterministic functions of their seed, so
// the same trace can be replayed for every scheme under comparison.
type Trace interface {
	// SNRdB returns the channel SNR for the symbol at index i (i >= 0).
	SNRdB(i int) float64
	// Name identifies the trace in experiment output.
	Name() string
}

// ConstantTrace returns a trace with a fixed SNR, the degenerate case used
// for calibration.
func ConstantTrace(leveldB float64) Trace {
	return fading.Constant{Level: leveldB}
}

// GilbertElliottTrace returns a two-state Markov trace alternating between a
// good and a bad SNR with geometric dwell times (in symbols) — a standard
// model for shadowing and bursty interference.
func GilbertElliottTrace(goodSNRdB, badSNRdB float64, dwellGood, dwellBad int, seed uint64) (Trace, error) {
	return fading.NewGilbertElliott(goodSNRdB, badSNRdB, dwellGood, dwellBad, seed)
}

// RayleighTrace returns a Rayleigh block-fading SNR trace: the average SNR
// scaled by an exponentially distributed power gain redrawn every coherence
// interval (in symbols).
func RayleighTrace(avgSNRdB float64, coherence int, seed uint64) (Trace, error) {
	return fading.NewRayleighBlock(avgSNRdB, coherence, seed)
}

// WalkTrace returns a bounded random walk in dB, modelling slow drift (a
// user walking away from an access point).
func WalkTrace(minDB, maxDB, stepdB float64, seed uint64) (Trace, error) {
	return fading.NewWalk(minDB, maxDB, stepdB, seed)
}

// DopplerTrace returns a Jakes-model Doppler fading SNR trace: the average
// SNR modulated by a sum of sinusoids at normalized Doppler frequency fd
// (cycles per symbol, 0 < fd <= 0.5) — correlated fast fading, in contrast
// to RayleighTrace's independent blocks.
func DopplerTrace(avgSNRdB, fd float64, seed uint64) (Trace, error) {
	return fading.NewDoppler(avgSNRdB, fd, seed)
}

// NewImpairmentPipeline compiles a declarative impairment spec — either the
// compact string grammar ("ge(good=16,bad=3)|spike(prob=0.02)|erase(p=0.01)")
// or its JSON form — into a Channel. Every stage's randomness derives from
// the pipeline seed, its name and its occurrence, so the same spec and seed
// reproduce byte-identical corruption anywhere, and a stage keeps its fault
// schedule when the stages around it change.
func NewImpairmentPipeline(spec string, seed uint64) (Channel, error) {
	s, err := impair.ParseAny(spec)
	if err != nil {
		return nil, err
	}
	return pipeline(s.Build(seed))
}

// composed chains channels: symbols pass through each in order, variances
// add, names join with '+'.
type composed struct {
	chs []Channel
}

func (c *composed) CorruptBlock(dst, src []complex128) {
	c.chs[0].CorruptBlock(dst, src)
	for _, ch := range c.chs[1:] {
		ch.CorruptBlock(dst, dst)
	}
}

func (c *composed) NoiseVariance() float64 {
	var sum float64
	for _, ch := range c.chs {
		sum += ch.NoiseVariance()
	}
	return sum
}

func (c *composed) Name() string {
	names := make([]string, len(c.chs))
	for i, ch := range c.chs {
		names[i] = ch.Name()
	}
	return strings.Join(names, "+")
}

// Compose chains channels into one: each transmitted block passes through
// every channel in order, NoiseVariance sums the parts, and the name joins
// theirs with '+'. Use it to stack hand-built channels the spec grammar
// cannot express (e.g. a quantized ADC front end over a trace channel).
func Compose(stages ...Channel) (Channel, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("spinal: Compose needs at least one channel")
	}
	if len(stages) == 1 {
		return stages[0], nil
	}
	return &composed{chs: stages}, nil
}

// NewTraceChannel returns a time-varying channel: symbol i experiences AWGN
// at trace.SNRdB(i), with a noise stream derived from seed. NoiseVariance
// reports the instantaneous variance the trace dictates for the next symbol.
func NewTraceChannel(trace Trace, seed uint64) (Channel, error) {
	return pipeline(impair.NewTraceNoise(trace, rng.New(seed)))
}

// NoiseVariance returns the total complex noise variance corresponding to an
// SNR in dB for unit-energy signalling — the sigma² a Channel at that SNR
// reports.
func NoiseVariance(snrDB float64) float64 {
	return 1 / mathx.DBToLinear(snrDB)
}
