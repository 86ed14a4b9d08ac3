// Package impair is the composable impairment pipeline: a vocabulary of
// symbol-block impairment stages (fixed and trace-driven noise,
// Gilbert-Elliott gating, Doppler/Rayleigh fading, Markov-arrival
// interference spikes, SNR ramps and steps, per-block erasures) chained into
// one deterministic channel. Real links never present one clean textbook
// model — they stack fading under burst interference under slow drift — and
// the paper's case for rateless codes is exactly that the code should not
// need to know which stack it is facing.
//
// This package is the repo's only implementation of a noisy symbol channel.
// NewAWGN, NewQuantizedAWGN (AWGN behind the §5 ADC) and NewTraceNoise build
// the textbook single-stage pipelines from a caller-owned random source; the
// spec grammar below builds everything else from a seed.
//
// A Pipeline implements both the facade block-channel contract
// (CorruptBlock/NoiseVariance/Name, so it drops into spinal.Code.TransmitOver
// and the genie experiments) and the scalar channel.SymbolChannel contract
// (Corrupt, so it drops under the link engine as a receiver radio or an
// EncodeFrames corruptor). Stacks are described declaratively by a Spec — a
// flag-parsable string like "ge(good=16,bad=3)|spike(prob=0.02,db=-3)" or the
// equivalent JSON — and built with per-stage seeds derived from one base
// seed, so the same spec and seed reproduce byte-identical noise streams
// regardless of where the stack runs.
package impair

import (
	"fmt"
	"math"
	"strings"

	"spinal/internal/fading"
	"spinal/internal/mathx"
	"spinal/internal/rng"
)

// Stage is one link in an impairment pipeline. A stage transforms a block of
// symbols in transmission order, advancing its internal state (noise stream,
// Markov chain, symbol position) by one step per symbol, so block boundaries
// never affect the stream: corrupting one block of 2n symbols equals
// corrupting two blocks of n.
type Stage interface {
	// Apply writes the impaired value of src[i] into dst[i]. dst and src
	// have equal length and may alias.
	Apply(dst, src []complex128)
	// Variance reports the additive complex noise variance the stage will
	// apply to the next symbol (zero for stages that transform or erase
	// rather than add Gaussian noise).
	Variance() float64
	// Name identifies the stage in experiment output.
	Name() string
}

// Pipeline chains stages in order: the output block of stage i is the input
// of stage i+1, so additive stages stack their noise and an erasure stage
// wipes whatever the stages before it produced. The zero-stage pipeline is
// the identity channel.
type Pipeline struct {
	stages []Stage
}

// NewPipeline chains the given stages. Most callers build pipelines from a
// Spec (see Spec.Build), which also derives the per-stage seeds.
func NewPipeline(stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages}
}

// Stages returns the pipeline's stages in order.
func (p *Pipeline) Stages() []Stage { return p.stages }

// CorruptBlock implements the block-channel contract shared by
// internal/channel and the spinal.Channel facade.
func (p *Pipeline) CorruptBlock(dst, src []complex128) {
	if len(p.stages) == 0 {
		copy(dst, src)
		return
	}
	p.stages[0].Apply(dst, src)
	for _, s := range p.stages[1:] {
		s.Apply(dst, dst)
	}
}

// Corrupt implements channel.SymbolChannel, consuming the pipeline's streams
// exactly as a length-one block would.
func (p *Pipeline) Corrupt(x complex128) complex128 {
	var buf [1]complex128
	buf[0] = x
	p.CorruptBlock(buf[:], buf[:])
	return buf[0]
}

// NoiseVariance reports the total additive noise variance around the
// pipeline's current state: the sum of every stage's instantaneous variance.
// This is the (stale the moment conditions shift) estimate a fixed-rate
// receiver would demodulate with.
func (p *Pipeline) NoiseVariance() float64 {
	var v float64
	for _, s := range p.stages {
		v += s.Variance()
	}
	return v
}

// Name identifies the stack in experiment output.
func (p *Pipeline) Name() string {
	if len(p.stages) == 0 {
		return "identity"
	}
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return strings.Join(names, "|")
}

// stageSeed derives a stage's seed from the pipeline's base seed, the stage
// name (folded FNV-style) and the stage's occurrence count among same-named
// stages (mixed with the splitmix64 increment, the repo's per-trial idiom).
// Seeding by name rather than position couples ablations: a stage faces the
// identical fault schedule whether it runs alone or anywhere inside a stack,
// so removing the other stages isolates exactly their contribution.
func stageSeed(seed uint64, occurrence int, name string) uint64 {
	h := seed ^ (0x9e3779b97f4a7c15 * uint64(occurrence+1))
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// noiseStage adds complex Gaussian noise whose variance is a function of the
// symbol index — the shared implementation of every additive stage (fixed
// AWGN, trace-driven fading, ramps and steps).
type noiseStage struct {
	name   string
	sigma2 func(i int) float64
	src    *rng.Rand
	pos    int
}

func (s *noiseStage) Apply(dst, src []complex128) {
	for i, x := range src {
		dst[i] = x + s.src.ComplexNormal(s.sigma2(s.pos))
		s.pos++
	}
}

func (s *noiseStage) Variance() float64 { return s.sigma2(s.pos) }
func (s *noiseStage) Name() string      { return s.name }

// snrNoise builds an additive stage from an SNR-in-dB profile, drawing its
// noise from src.
func snrNoise(name string, src *rng.Rand, snrdB func(i int) float64) *noiseStage {
	return &noiseStage{
		name:   name,
		src:    src,
		sigma2: func(i int) float64 { return 1 / mathx.DBToLinear(snrdB(i)) },
	}
}

// traceNoise builds an additive stage that follows a fading trace. The noise
// stream and the trace's own randomness derive from distinct sub-seeds so the
// trace shape does not depend on how many symbols have been corrupted.
func traceNoise(name string, seed uint64, trace fading.Trace) *noiseStage {
	return snrNoise(name, rng.New(seed^0xa54ff53a5f1d36f1), trace.SNRdB)
}

// NewAWGN returns the one-stage pipeline that adds complex white Gaussian
// noise at snrDB (relative to the unit-energy constellation), drawing its
// noise from src. Callers that also draw other randomness from src (info
// bits, say) keep their stream order.
func NewAWGN(snrDB float64, src *rng.Rand) (*Pipeline, error) {
	st, err := awgnStage(snrDB, src)
	if err != nil {
		return nil, err
	}
	return NewPipeline(st), nil
}

// NewQuantizedAWGN returns the paper's §5 receive path: AWGN at snrDB
// followed by an ADC that quantizes each dimension to adcBits. The ADC's
// full-scale range covers the unit-energy linear constellation (peak
// amplitude √1.5) plus four per-dimension noise standard deviations.
func NewQuantizedAWGN(snrDB float64, adcBits int, src *rng.Rand) (*Pipeline, error) {
	st, err := awgnStage(snrDB, src)
	if err != nil {
		return nil, err
	}
	limit := math.Sqrt(1.5) + 4*math.Sqrt(st.Variance()/2)
	q, err := newADC(adcBits, limit)
	if err != nil {
		return nil, err
	}
	return NewPipeline(st, q), nil
}

// NewTraceNoise returns the one-stage pipeline in which symbol i experiences
// AWGN at trace.SNRdB(i), drawing its noise from src. NoiseVariance reports
// the variance the trace dictates for the next symbol.
func NewTraceNoise(trace fading.Trace, src *rng.Rand) (*Pipeline, error) {
	if trace == nil {
		return nil, fmt.Errorf("impair: nil trace")
	}
	if src == nil {
		return nil, fmt.Errorf("impair: nil random source")
	}
	return NewPipeline(snrNoise(trace.Name(), src, trace.SNRdB)), nil
}

// awgnStage is the fixed-SNR additive stage behind NewAWGN, NewQuantizedAWGN
// and the grammar's awgn, with its variance computed once.
func awgnStage(snrDB float64, src *rng.Rand) (*noiseStage, error) {
	if err := checkDB("awgn", "snr", snrDB); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("impair: nil random source")
	}
	sigma2 := 1 / mathx.DBToLinear(snrDB)
	return &noiseStage{
		name:   fmt.Sprintf("awgn(snr=%g)", snrDB),
		src:    src,
		sigma2: func(int) float64 { return sigma2 },
	}, nil
}

// adcStage models the receiver's analog-to-digital converter: each dimension
// is clipped to [-limit, limit] and rounded to the centre of one of 2^bits
// uniform levels. The paper's evaluation quantizes to 14 bits (§5). The
// limit is always derived from a validated SNR, so only bits is checked.
type adcStage struct {
	bits        int
	limit, step float64
}

func newADC(bits int, limit float64) (*adcStage, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("impair: ADC bits must be in [1,32], got %d", bits)
	}
	levels := float64(uint64(1) << uint(bits))
	return &adcStage{bits: bits, limit: limit, step: 2 * limit / levels}, nil
}

func (s *adcStage) quantize(v float64) float64 {
	v = mathx.Clamp(v, -s.limit, s.limit-s.step/2)
	idx := math.Floor((v + s.limit) / s.step)
	return -s.limit + (idx+0.5)*s.step
}

func (s *adcStage) Apply(dst, src []complex128) {
	for i, x := range src {
		dst[i] = complex(s.quantize(real(x)), s.quantize(imag(x)))
	}
}

func (s *adcStage) Variance() float64 { return 0 }
func (s *adcStage) Name() string      { return fmt.Sprintf("adc(bits=%d)", s.bits) }

// spikeStage adds strong interference in bursts with Markov arrivals: each
// symbol, an idle stage enters a spike with probability prob, and an active
// spike ends with probability 1/dwell (geometric dwell times). During a
// spike the stage adds noise at the configured signal-to-interference ratio,
// modelling a co-channel transmitter keying on and off.
type spikeStage struct {
	name   string
	prob   float64 // per-symbol arrival probability
	endP   float64 // per-symbol departure probability (1/dwell)
	sigma2 float64 // interference variance while active
	src    *rng.Rand
	active bool
}

func (s *spikeStage) Apply(dst, src []complex128) {
	for i, x := range src {
		if s.active {
			if s.src.Bernoulli(s.endP) {
				s.active = false
			}
		} else if s.src.Bernoulli(s.prob) {
			s.active = true
		}
		if s.active {
			dst[i] = x + s.src.ComplexNormal(s.sigma2)
		} else {
			dst[i] = x
		}
	}
}

func (s *spikeStage) Variance() float64 {
	if s.active {
		return s.sigma2
	}
	return 0
}

func (s *spikeStage) Name() string { return s.name }

// eraseStage wipes whole blocks of symbols: with probability p, a block of
// blockLen symbols is replaced by unit-variance noise — the channel output
// when the signal is simply gone (a deep fade, a blanked slot), which is how
// erasures look to a soft-input decoder that has no erasure flag.
type eraseStage struct {
	name     string
	p        float64
	blockLen int
	src      *rng.Rand
	pos      int
	erasing  bool
}

func (s *eraseStage) Apply(dst, src []complex128) {
	for i, x := range src {
		if s.pos%s.blockLen == 0 {
			s.erasing = s.src.Bernoulli(s.p)
		}
		if s.erasing {
			dst[i] = s.src.ComplexNormal(1)
		} else {
			dst[i] = x
		}
		s.pos++
	}
}

func (s *eraseStage) Variance() float64 { return 0 }
func (s *eraseStage) Name() string      { return s.name }

// buildStage constructs one stage from its spec and derived seed. The stage
// vocabulary (see the package comment in spec.go for argument details):
//
//	awgn     fixed additive noise
//	ge       Gilbert-Elliott two-level SNR gating
//	rayleigh Rayleigh block fading
//	doppler  Jakes sum-of-sinusoids fading
//	walk     bounded random walk in dB
//	ramp     linear SNR ramp
//	step     SNR step change
//	spike    Markov-arrival interference bursts
//	erase    per-block erasures
func buildStage(sp StageSpec, seed uint64) (Stage, error) {
	a := args{stage: sp.Stage, m: sp.Args}
	var st Stage
	switch sp.Stage {
	case "awgn":
		ns, err := awgnStage(a.db("snr", 10), rng.New(seed))
		if err != nil {
			return nil, err
		}
		st = ns
	case "ge":
		good := a.db("good", 15)
		bad := a.db("bad", 0)
		dgood := int(a.get("dgood", 300))
		dbad := int(a.get("dbad", 100))
		tr, err := fading.NewGilbertElliott(good, bad, dgood, dbad, seed^0x1f83d9abfb41bd6b)
		if err != nil {
			return nil, err
		}
		st = traceNoise(fmt.Sprintf("ge(good=%g,bad=%g,dgood=%d,dbad=%d)", good, bad, dgood, dbad), seed, tr)
	case "rayleigh":
		avg := a.db("avg", 15)
		tc := int(a.get("tc", 64))
		tr, err := fading.NewRayleighBlock(avg, tc, seed^0x1f83d9abfb41bd6b)
		if err != nil {
			return nil, err
		}
		st = traceNoise(fmt.Sprintf("rayleigh(avg=%g,tc=%d)", avg, tc), seed, tr)
	case "doppler":
		avg := a.db("avg", 15)
		fd := a.get("fd", 0.01)
		tr, err := fading.NewDoppler(avg, fd, seed^0x1f83d9abfb41bd6b)
		if err != nil {
			return nil, err
		}
		st = traceNoise(fmt.Sprintf("doppler(avg=%g,fd=%g)", avg, fd), seed, tr)
	case "walk":
		lo := a.db("min", 0)
		hi := a.db("max", 20)
		step := a.get("step", 0.5)
		tr, err := fading.NewWalk(lo, hi, step, seed^0x1f83d9abfb41bd6b)
		if err != nil {
			return nil, err
		}
		st = traceNoise(fmt.Sprintf("walk(min=%g,max=%g,step=%g)", lo, hi, step), seed, tr)
	case "ramp":
		from := a.db("from", 20)
		to := a.db("to", 5)
		over := int(a.get("over", 5000))
		if over < 1 {
			return nil, fmt.Errorf("impair: ramp over=%d must be at least one symbol", over)
		}
		st = snrNoise(fmt.Sprintf("ramp(from=%g,to=%g,over=%d)", from, to, over), rng.New(seed),
			func(i int) float64 {
				if i >= over {
					return to
				}
				return from + (to-from)*float64(i)/float64(over)
			})
	case "step":
		from := a.db("from", 20)
		to := a.db("to", 5)
		at := int(a.get("at", 2500))
		st = snrNoise(fmt.Sprintf("step(from=%g,to=%g,at=%d)", from, to, at), rng.New(seed),
			func(i int) float64 {
				if i < at {
					return from
				}
				return to
			})
	case "spike":
		prob := a.get("prob", 0.01)
		dwell := a.get("dwell", 20)
		db := a.db("db", 0) // signal-to-interference ratio while spiking
		if prob < 0 || prob > 1 {
			return nil, fmt.Errorf("impair: spike prob=%g out of [0,1]", prob)
		}
		if dwell < 1 {
			return nil, fmt.Errorf("impair: spike dwell=%g must be at least one symbol", dwell)
		}
		st = &spikeStage{
			name:   fmt.Sprintf("spike(prob=%g,dwell=%g,db=%g)", prob, dwell, db),
			prob:   prob,
			endP:   1 / dwell,
			sigma2: 1 / mathx.DBToLinear(db),
			src:    rng.New(seed),
		}
	case "erase":
		p := a.get("p", 0.01)
		blockLen := int(a.get("block", 16))
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("impair: erase p=%g out of [0,1]", p)
		}
		if blockLen < 1 {
			return nil, fmt.Errorf("impair: erase block=%d must be at least one symbol", blockLen)
		}
		st = &eraseStage{
			name:     fmt.Sprintf("erase(p=%g,block=%d)", p, blockLen),
			p:        p,
			blockLen: blockLen,
			src:      rng.New(seed),
		}
	default:
		return nil, fmt.Errorf("impair: unknown stage %q", sp.Stage)
	}
	if err := a.err(); err != nil {
		return nil, err
	}
	return st, nil
}

// args validates a stage's argument map: get consumes known keys and err
// reports the first non-finite value get read and any key the stage did not
// recognize, so typos and NaN/±Inf fail loudly instead of silently selecting
// defaults or poisoning the symbol stream.
type args struct {
	stage string
	m     map[string]float64
	used  []string
	bad   error
}

func (a *args) get(key string, def float64) float64 {
	a.used = append(a.used, key)
	v, ok := a.m[key]
	if !ok {
		return def
	}
	if err := finite(a.stage, key, v); err != nil && a.bad == nil {
		a.bad = err
	}
	return v
}

func (a *args) err() error {
	if a.bad != nil {
		return a.bad
	}
	for k := range a.m {
		known := false
		for _, u := range a.used {
			if k == u {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("impair: stage %q has no argument %q", a.stage, k)
		}
	}
	return nil
}

// db reads a dB-valued argument (an SNR or signal-to-interference ratio).
func (a *args) db(key string, def float64) float64 {
	v := a.get(key, def)
	if err := checkDB(a.stage, key, v); err != nil && a.bad == nil {
		a.bad = err
	}
	return v
}

// finite rejects NaN and ±Inf stage arguments.
func finite(stage, key string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("impair: stage %q argument %s=%v is not finite", stage, key, v)
	}
	return nil
}

// maxDB bounds dB arguments so that every noise variance a stage can derive
// from one, 10^(-dB/10) times the traces' deepest fade, is a finite float64.
const maxDB = 1000

// checkDB accepts finite dB values within ±maxDB.
func checkDB(stage, key string, v float64) error {
	if err := finite(stage, key, v); err != nil {
		return err
	}
	if math.Abs(v) > maxDB {
		return fmt.Errorf("impair: stage %q argument %s=%v dB is outside ±%d dB", stage, key, v, maxDB)
	}
	return nil
}
