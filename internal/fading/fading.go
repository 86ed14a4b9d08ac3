// Package fading models time-varying wireless channels: SNR traces that
// evolve over the duration of a transmission (impair.NewTraceNoise and the
// impair trace stages apply them symbol by symbol), and the delayed/noisy SNR
// estimators that reactive bit-rate adaptation has to rely on.
//
// The introduction of the paper motivates rateless codes precisely with these
// dynamics: channel conditions change "even at time-scales shorter than a
// single packet transmission time", so a sender that measures SNR and then
// picks a fixed configuration is always acting on stale information. This
// package provides the substrate for the rate-adaptation-versus-rateless
// comparison in internal/adapt.
package fading

import (
	"fmt"
	"math"

	"spinal/internal/rng"
)

// Trace reports the instantaneous channel SNR (in dB) at a given symbol
// index. Traces are deterministic functions of their seed, so experiments are
// reproducible and the same trace can be replayed for every scheme under
// comparison.
type Trace interface {
	// SNRdB returns the channel SNR for the symbol at index i (i >= 0).
	SNRdB(i int) float64
	// Name identifies the trace in experiment output.
	Name() string
}

// Constant is a trace with a fixed SNR, the degenerate case used for
// calibration.
type Constant struct {
	Level float64
}

// SNRdB implements Trace.
func (c Constant) SNRdB(int) float64 { return c.Level }

// Name implements Trace.
func (c Constant) Name() string { return fmt.Sprintf("constant(%.1fdB)", c.Level) }

// GilbertElliott is a two-state Markov trace that alternates between a good
// and a bad SNR with geometric dwell times, a standard model for shadowing
// and bursty interference.
type GilbertElliott struct {
	goodSNR   float64
	badSNR    float64
	dwellGood int
	dwellBad  int
	seed      uint64

	// lazily generated state sequence, extended on demand
	states []bool // true = good
	src    *rng.Rand
}

// NewGilbertElliott returns a two-state trace. dwellGood and dwellBad are the
// mean sojourn times in symbols; transitions are sampled geometrically.
func NewGilbertElliott(goodSNR, badSNR float64, dwellGood, dwellBad int, seed uint64) (*GilbertElliott, error) {
	if dwellGood < 1 || dwellBad < 1 {
		return nil, fmt.Errorf("fading: dwell times must be at least one symbol")
	}
	return &GilbertElliott{
		goodSNR:   goodSNR,
		badSNR:    badSNR,
		dwellGood: dwellGood,
		dwellBad:  dwellBad,
		seed:      seed,
		src:       rng.New(seed),
		states:    []bool{true},
	}, nil
}

// SNRdB implements Trace.
func (g *GilbertElliott) SNRdB(i int) float64 {
	if i < 0 {
		i = 0
	}
	for len(g.states) <= i {
		cur := g.states[len(g.states)-1]
		dwell := g.dwellGood
		if !cur {
			dwell = g.dwellBad
		}
		// Geometric transition with mean dwell time.
		next := cur
		if g.src.Bernoulli(1 / float64(dwell)) {
			next = !cur
		}
		g.states = append(g.states, next)
	}
	if g.states[i] {
		return g.goodSNR
	}
	return g.badSNR
}

// Name implements Trace.
func (g *GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(%.0f/%.0fdB)", g.goodSNR, g.badSNR)
}

// RayleighBlock is a block-fading trace: the average SNR is scaled by an
// exponentially distributed power gain that is redrawn every coherence block.
type RayleighBlock struct {
	avgSNRdB  float64
	coherence int
	seed      uint64

	gains []float64
	src   *rng.Rand
}

// NewRayleighBlock returns a Rayleigh block-fading trace with the given
// average SNR and coherence time in symbols.
func NewRayleighBlock(avgSNRdB float64, coherence int, seed uint64) (*RayleighBlock, error) {
	if coherence < 1 {
		return nil, fmt.Errorf("fading: coherence time must be at least one symbol")
	}
	return &RayleighBlock{avgSNRdB: avgSNRdB, coherence: coherence, seed: seed, src: rng.New(seed)}, nil
}

// SNRdB implements Trace.
func (r *RayleighBlock) SNRdB(i int) float64 {
	if i < 0 {
		i = 0
	}
	block := i / r.coherence
	for len(r.gains) <= block {
		// |h|^2 is exponential with unit mean for Rayleigh fading.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		r.gains = append(r.gains, -math.Log(u))
	}
	g := r.gains[block]
	if g < 1e-6 {
		g = 1e-6
	}
	return r.avgSNRdB + 10*math.Log10(g)
}

// Name implements Trace.
func (r *RayleighBlock) Name() string {
	return fmt.Sprintf("rayleigh(avg %.0fdB, Tc=%d)", r.avgSNRdB, r.coherence)
}

// Walk is a bounded random walk in dB, modelling slow drift (a user walking
// away from an access point).
type Walk struct {
	min, max float64
	stepdB   float64
	seed     uint64

	levels []float64
	src    *rng.Rand
}

// NewWalk returns a random-walk trace starting midway between min and max,
// moving by ±stepdB per symbol and reflecting at the bounds.
func NewWalk(min, max, stepdB float64, seed uint64) (*Walk, error) {
	if max <= min {
		return nil, fmt.Errorf("fading: walk range [%v,%v] is empty", min, max)
	}
	if stepdB <= 0 {
		return nil, fmt.Errorf("fading: walk step must be positive")
	}
	w := &Walk{min: min, max: max, stepdB: stepdB, seed: seed, src: rng.New(seed)}
	w.levels = []float64{(min + max) / 2}
	return w, nil
}

// SNRdB implements Trace.
func (w *Walk) SNRdB(i int) float64 {
	if i < 0 {
		i = 0
	}
	for len(w.levels) <= i {
		cur := w.levels[len(w.levels)-1]
		if w.src.Bool() {
			cur += w.stepdB
		} else {
			cur -= w.stepdB
		}
		if cur > w.max {
			cur = w.max
		}
		if cur < w.min {
			cur = w.min
		}
		w.levels = append(w.levels, cur)
	}
	return w.levels[i]
}

// Name implements Trace.
func (w *Walk) Name() string {
	return fmt.Sprintf("walk(%.0f..%.0fdB)", w.min, w.max)
}

// Doppler is a Jakes-style sum-of-sinusoids fading trace: the power gain at
// symbol i is |Σ exp(j(2π·fd·i·cos αk + φk))|²/M over M scatterers with
// random angles of arrival and phases, giving the oscillating constructive/
// destructive interference pattern of a receiver moving at normalized Doppler
// frequency fd (cycles per symbol). Unlike the block models, the gain is a
// closed-form function of the index, so the trace has no mutable state.
type Doppler struct {
	avgSNRdB float64
	fd       float64
	cosA     []float64
	phase    []float64
}

// dopplerScatterers is the number of sinusoids summed per gain sample; eight
// is enough for the envelope to be visibly Rayleigh-like.
const dopplerScatterers = 8

// NewDoppler returns a Doppler fading trace with the given average SNR and
// normalized Doppler frequency fd in cycles per symbol (0 < fd <= 0.5).
// Scatterer angles and phases derive deterministically from seed.
func NewDoppler(avgSNRdB, fd float64, seed uint64) (*Doppler, error) {
	if fd <= 0 || fd > 0.5 {
		return nil, fmt.Errorf("fading: doppler frequency %v out of (0, 0.5]", fd)
	}
	src := rng.New(seed)
	d := &Doppler{
		avgSNRdB: avgSNRdB,
		fd:       fd,
		cosA:     make([]float64, dopplerScatterers),
		phase:    make([]float64, dopplerScatterers),
	}
	for k := range d.cosA {
		d.cosA[k] = math.Cos(2 * math.Pi * src.Float64())
		d.phase[k] = 2 * math.Pi * src.Float64()
	}
	return d, nil
}

// SNRdB implements Trace.
func (d *Doppler) SNRdB(i int) float64 {
	if i < 0 {
		i = 0
	}
	var re, im float64
	for k := range d.cosA {
		theta := 2*math.Pi*d.fd*float64(i)*d.cosA[k] + d.phase[k]
		re += math.Cos(theta)
		im += math.Sin(theta)
	}
	g := (re*re + im*im) / dopplerScatterers
	if g < 1e-6 {
		g = 1e-6
	}
	return d.avgSNRdB + 10*math.Log10(g)
}

// Name implements Trace.
func (d *Doppler) Name() string {
	return fmt.Sprintf("doppler(avg %.0fdB, fd=%.3g)", d.avgSNRdB, d.fd)
}

// Estimator models the SNR measurement a reactive rate-adaptation scheme
// acts on: the true SNR some delay ago, plus Gaussian measurement error.
type Estimator struct {
	trace   Trace
	delay   int
	errStd  float64
	src     *rng.Rand
	history map[int]float64
}

// NewEstimator returns an estimator with the given feedback delay (in
// symbols) and measurement error standard deviation (dB).
func NewEstimator(trace Trace, delaySymbols int, errStdDB float64, seed uint64) (*Estimator, error) {
	if trace == nil {
		return nil, fmt.Errorf("fading: nil trace")
	}
	if delaySymbols < 0 || errStdDB < 0 {
		return nil, fmt.Errorf("fading: negative delay or error")
	}
	return &Estimator{
		trace:   trace,
		delay:   delaySymbols,
		errStd:  errStdDB,
		src:     rng.New(seed),
		history: map[int]float64{},
	}, nil
}

// Estimate returns the estimated SNR available to the sender when it is about
// to transmit the symbol at index i.
func (e *Estimator) Estimate(i int) float64 {
	at := i - e.delay
	if at < 0 {
		at = 0
	}
	if v, ok := e.history[at]; ok {
		return v
	}
	v := e.trace.SNRdB(at) + e.errStd*e.src.NormFloat64()
	e.history[at] = v
	return v
}
