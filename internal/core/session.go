package core

import "fmt"

// This file implements the rateless transmission loop of §3.2: the sender
// keeps emitting symbols (in schedule order) and the receiver keeps feeding
// them to the decoder, attempting a decode according to an attempt policy,
// until the decoded message is verified (by a genie in the paper's
// simulations, by a CRC in a deployed link layer) or a give-up bound is hit.

// AttemptPolicy decides after which received symbols the receiver runs the
// decoder. Attempting after every symbol gives the finest rate granularity
// but costs the most computation; attempting once per pass is cheaper and
// loses little at low SNR where many passes are needed anyway.
type AttemptPolicy interface {
	// ShouldAttempt reports whether to run the decoder after `received`
	// symbols (1-based) have arrived, for a code with nseg spine values.
	ShouldAttempt(received, nseg int) bool
	// Name identifies the policy in experiment output.
	Name() string
}

// AttemptEverySymbol attempts a decode after every received symbol.
type AttemptEverySymbol struct{}

// ShouldAttempt implements AttemptPolicy.
func (AttemptEverySymbol) ShouldAttempt(received, nseg int) bool { return true }

// Name implements AttemptPolicy.
func (AttemptEverySymbol) Name() string { return "every-symbol" }

// AttemptEveryPass attempts a decode only when a whole pass worth of symbols
// (n/k of them) has arrived.
type AttemptEveryPass struct{}

// ShouldAttempt implements AttemptPolicy.
func (AttemptEveryPass) ShouldAttempt(received, nseg int) bool {
	return nseg > 0 && received%nseg == 0
}

// Name implements AttemptPolicy.
func (AttemptEveryPass) Name() string { return "every-pass" }

// AttemptAdaptive attempts after every symbol for the first few passes (where
// each extra symbol can change the achieved rate substantially) and once per
// pass afterwards (where rates are low and per-symbol attempts are wasted
// work). This is the default policy of the experiment harness.
//
// The default fine-grained window of 8 passes buys fine rate granularity
// through the SNR range where most messages complete, and the rate columns
// of the experiments are recorded with it. Every attempt is a full decode,
// so the window is paid in decode work: at 0 dB with the Figure 2 code a
// message takes 218240 nodes over its attempts (BenchmarkRatelessDecode),
// and on a 2-vCPU VM the default-scale bsc scenario takes about 2.7 s, the
// spinal scenario 2.6 s and figure2 10 s. The link layer does not use
// these policies: its receiver attempts from a learned threshold, about
// once per message.
type AttemptAdaptive struct {
	// FinePasses is the number of initial passes decoded at per-symbol
	// granularity. Zero means 8.
	FinePasses int
}

// DefaultFinePasses is the fine-grained window used when
// AttemptAdaptive.FinePasses is zero.
const DefaultFinePasses = 8

// ShouldAttempt implements AttemptPolicy.
func (a AttemptAdaptive) ShouldAttempt(received, nseg int) bool {
	fine := a.FinePasses
	if fine <= 0 {
		fine = DefaultFinePasses
	}
	if received <= fine*nseg {
		return true
	}
	return nseg > 0 && received%nseg == 0
}

// Name implements AttemptPolicy.
func (a AttemptAdaptive) Name() string { return "adaptive" }

// AttemptBackoff attempts after every pass for the first several passes and
// then backs off geometrically (every 2nd pass, then every 4th, ...). It
// bounds the total decoding work of very long transmissions — the cost of an
// attempt grows with the number of passes received, so attempting every pass
// forever makes the work quadratic — at the price of a small rate loss when a
// message finally decodes between two attempt points.
type AttemptBackoff struct {
	// DensePasses is the number of initial passes attempted at per-pass
	// granularity. Zero means 8.
	DensePasses int
}

// ShouldAttempt implements AttemptPolicy.
func (a AttemptBackoff) ShouldAttempt(received, nseg int) bool {
	if nseg <= 0 || received%nseg != 0 {
		return false
	}
	dense := a.DensePasses
	if dense <= 0 {
		dense = 8
	}
	pass := received / nseg
	if pass <= dense {
		return true
	}
	// Beyond the dense phase, attempt at passes dense*2, dense*4, ... and at
	// every multiple of the current backoff interval in between.
	interval := 2
	for threshold := dense * 2; ; threshold *= 2 {
		if pass <= threshold {
			return pass%interval == 0
		}
		interval *= 2
		if interval > 1<<20 {
			return pass%interval == 0
		}
	}
}

// Name implements AttemptPolicy.
func (a AttemptBackoff) Name() string { return "backoff" }

// Verifier reports whether a decoded message should be accepted, ending the
// rateless transmission. GenieVerifier compares against the true message (the
// paper's simulation methodology); link-layer deployments verify a CRC
// embedded in the message instead.
type Verifier func(decoded []byte) bool

// GenieVerifier returns a Verifier that accepts exactly the true message.
func GenieVerifier(truth []byte, messageBits int) Verifier {
	ref := append([]byte(nil), truth...)
	return func(decoded []byte) bool {
		return EqualMessages(decoded, ref, messageBits)
	}
}

// SessionConfig configures a rateless transmission.
type SessionConfig struct {
	// Params are the code parameters shared by sender and receiver.
	Params Params
	// BeamWidth is the decoder's B. Values below 1 default to 16 (the value
	// used for Figure 2).
	BeamWidth int
	// MaxCandidates optionally overrides the decoder's cap on unpruned
	// expansion at punctured levels (0 keeps the decoder default).
	MaxCandidates int
	// Schedule is the symbol transmission order; nil means the unpunctured
	// sequential schedule.
	Schedule Schedule
	// Attempts is the decode-attempt policy; nil means AttemptAdaptive.
	Attempts AttemptPolicy
	// MaxSymbols bounds the number of channel uses before the sender gives up
	// on the message. Zero selects 400 passes worth of symbols.
	MaxSymbols int
	// Search selects the decoder's tree-search strategy: the exact beam
	// search (the zero value) or the approximate mode (see
	// BeamDecoder.SetSearchMode).
	Search SearchMode
	// Pool, when non-nil, supplies the session's decoder and observation
	// containers as a DecoderPool lease (released when the session returns)
	// instead of constructing them, so callers running many sessions — the
	// experiment trial runner in particular — reuse decoder buffers across
	// trials. Pooled and freshly built decoders are bit-identical.
	Pool *DecoderPool
}

func (c SessionConfig) withDefaults() (SessionConfig, error) {
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.BeamWidth < 1 {
		c.BeamWidth = 16
	}
	nseg := c.Params.NumSegments()
	if c.Schedule == nil {
		sched, err := NewSequentialSchedule(nseg)
		if err != nil {
			return c, err
		}
		c.Schedule = sched
	}
	if c.Attempts == nil {
		c.Attempts = AttemptAdaptive{}
	}
	if c.MaxSymbols <= 0 {
		c.MaxSymbols = 400 * nseg
	}
	return c, nil
}

// Result summarizes one rateless transmission.
type Result struct {
	// Decoded is the receiver's final message estimate.
	Decoded []byte
	// Success reports whether the verifier accepted a decode before the
	// give-up bound.
	Success bool
	// ChannelUses is the number of symbols (or coded bits, for the BSC
	// variant) transmitted up to and including the accepted decode, or up to
	// the give-up bound on failure.
	ChannelUses int
	// Attempts is the number of decoder invocations.
	Attempts int
	// NodesExpanded is the total number of expanded decoding-tree nodes
	// (hash replay plus full cost computation) across all attempts.
	NodesExpanded int64
	// NodesSaved is the total estimated child expansions avoided by
	// approximate search across all attempts; zero under exact search.
	NodesSaved int64
}

// Rate returns the achieved rate in message bits per channel use, or zero if
// the transmission failed.
func (r *Result) Rate(messageBits int) float64 {
	if !r.Success || r.ChannelUses == 0 {
		return 0
	}
	return float64(messageBits) / float64(r.ChannelUses)
}

// BlockChannel corrupts a block of complex symbols: dst[i] receives the
// channel output for src[i], in order (stateful channels consume their noise
// stream in slice order, so a block call is indistinguishable from the
// equivalent sequence of scalar calls). dst and src have equal length and may
// alias. It is the batch contract the sessions — and the public facade's
// Channel interface — are built on.
type BlockChannel interface {
	CorruptBlock(dst, src []complex128)
}

// BlockBitChannel is the binary counterpart of BlockChannel for the BSC
// variant: dst[i] receives the (possibly flipped) coded bit src[i].
type BlockBitChannel interface {
	CorruptBits(dst, src []byte)
}

// maxSessionBatch bounds the scratch buffers of a session: stretches of the
// stream with no decode attempt (the backoff policy skips whole pass ranges)
// are emitted in sub-batches of at most this many symbols.
const maxSessionBatch = 4096

// sessionBuffers holds the reusable batch scratch of one transmission.
type sessionBuffers struct {
	poss []SymbolPos
	tx   []complex128
	rx   []complex128
	txb  []byte
	rxb  []byte
}

// sized returns the buffers resliced to n elements, growing them as needed.
func (b *sessionBuffers) sized(n int) ([]SymbolPos, []complex128, []complex128) {
	if cap(b.poss) < n {
		b.poss = make([]SymbolPos, n)
	}
	if cap(b.tx) < n {
		b.tx = make([]complex128, n)
		b.rx = make([]complex128, n)
	}
	return b.poss[:n], b.tx[:n], b.rx[:n]
}

// sizedBits is the bit-session counterpart of sized.
func (b *sessionBuffers) sizedBits(n int) ([]SymbolPos, []byte, []byte) {
	if cap(b.poss) < n {
		b.poss = make([]SymbolPos, n)
	}
	if cap(b.txb) < n {
		b.txb = make([]byte, n)
		b.rxb = make([]byte, n)
	}
	return b.poss[:n], b.txb[:n], b.rxb[:n]
}

// nextAttempt scans forward from `sent` transmitted symbols to the next
// symbol count at which the receiver runs the decoder, or to maxSymbols if no
// attempt point remains in the budget. The boolean reports whether the
// returned count is an attempt point.
func nextAttempt(att AttemptPolicy, sent, minUses, nseg, maxSymbols int) (int, bool) {
	for sent < maxSymbols {
		sent++
		if sent >= minUses && att.ShouldAttempt(sent, nseg) {
			return sent, true
		}
	}
	return maxSymbols, false
}

// sessionDecoder acquires and configures the decoder of a session: a lease
// from cfg.Pool when one is configured (lease is nil otherwise), or a freshly
// built decoder. The returned release func returns the lease to the pool
// (it does nothing for a private decoder). Every tuning knob is applied
// explicitly in both paths, so a pooled session behaves exactly like an
// unpooled one.
func sessionDecoder(cfg SessionConfig) (dec *BeamDecoder, lease *LeasedDecoder, release func(), err error) {
	if cfg.Pool != nil {
		lease, err = cfg.Pool.Lease(cfg.Params, cfg.BeamWidth)
		if err != nil {
			return nil, nil, nil, err
		}
		dec, release = lease.Dec, lease.Release
	} else {
		dec, err = NewBeamDecoder(cfg.Params, cfg.BeamWidth)
		if err != nil {
			return nil, nil, nil, err
		}
		release = func() {}
	}
	if cfg.MaxCandidates > 0 {
		if err := dec.SetMaxCandidates(cfg.MaxCandidates); err != nil {
			release()
			return nil, nil, nil, err
		}
	}
	if err := dec.SetSearchMode(cfg.Search); err != nil {
		release()
		return nil, nil, nil, err
	}
	return dec, lease, release, nil
}

// RunChannelSession transmits message over a BlockChannel until verify
// accepts a decode, returning the transcript of the transmission. This is the
// batch-first transmission loop: symbols are generated, corrupted and folded
// into the observations a whole inter-attempt stretch at a time (one striped
// pass under the default policies), so the hot path costs one schedule fill,
// one encoder fill, one channel call and one observation append per batch
// instead of four calls per symbol. Attempt points, channel noise stream and
// decode results are identical to the per-symbol loop this replaces.
func RunChannelSession(cfg SessionConfig, message []byte, ch BlockChannel, verify Verifier) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if ch == nil || verify == nil {
		return nil, fmt.Errorf("core: nil channel or verifier")
	}
	enc, err := NewEncoder(cfg.Params, message)
	if err != nil {
		return nil, err
	}
	dec, lease, release, err := sessionDecoder(cfg)
	if err != nil {
		return nil, err
	}
	defer release()
	var obs *Observations
	if lease != nil {
		obs = lease.Obs
	} else if obs, err = NewObservations(cfg.Params.NumSegments()); err != nil {
		return nil, err
	}

	res := &Result{}
	nseg := cfg.Params.NumSegments()
	// No decode attempt can succeed before the received symbols could even in
	// principle carry the whole message (2c coded bits per symbol), so skip
	// the earliest attempts outright.
	minUses := (cfg.Params.MessageBits + 2*cfg.Params.C - 1) / (2 * cfg.Params.C)
	var bufs sessionBuffers
	sent := 0
	for sent < cfg.MaxSymbols {
		stop, attempt := nextAttempt(cfg.Attempts, sent, minUses, nseg, cfg.MaxSymbols)
		for sent < stop {
			n := stop - sent
			if n > maxSessionBatch {
				n = maxSessionBatch
			}
			poss, tx, rx := bufs.sized(n)
			PositionsInto(cfg.Schedule, sent, poss)
			if err := enc.EncodeBatch(tx, poss); err != nil {
				return nil, err
			}
			ch.CorruptBlock(rx, tx)
			if err := obs.AddBatch(poss, rx); err != nil {
				return nil, err
			}
			sent += n
		}
		if !attempt {
			break
		}
		out, err := dec.Decode(obs)
		if err != nil {
			return nil, err
		}
		res.Attempts++
		res.NodesExpanded += int64(out.NodesExpanded)
		res.NodesSaved += int64(out.NodesSaved)
		res.Decoded = out.Message
		if verify(out.Message) {
			res.Success = true
			res.ChannelUses = sent
			return res, nil
		}
	}
	res.ChannelUses = cfg.MaxSymbols
	return res, nil
}

// RunBitChannelSession is the binary-channel counterpart of
// RunChannelSession: the encoder emits one coded bit per (spine value, pass)
// and the decoder uses the Hamming metric, which is the ML rule for the BSC.
func RunBitChannelSession(cfg SessionConfig, message []byte, ch BlockBitChannel, verify Verifier) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if ch == nil || verify == nil {
		return nil, fmt.Errorf("core: nil channel or verifier")
	}
	enc, err := NewEncoder(cfg.Params, message)
	if err != nil {
		return nil, err
	}
	dec, lease, release, err := sessionDecoder(cfg)
	if err != nil {
		return nil, err
	}
	defer release()
	var obs *BitObservations
	if lease != nil {
		if obs, err = lease.Bits(); err != nil {
			return nil, err
		}
	} else if obs, err = NewBitObservations(cfg.Params.NumSegments()); err != nil {
		return nil, err
	}

	res := &Result{}
	nseg := cfg.Params.NumSegments()
	// A decode from fewer coded bits than message bits cannot be reliable
	// (the BSC carries at most one bit per channel use), so skip those
	// attempts.
	minUses := cfg.Params.MessageBits
	var bufs sessionBuffers
	sent := 0
	for sent < cfg.MaxSymbols {
		stop, attempt := nextAttempt(cfg.Attempts, sent, minUses, nseg, cfg.MaxSymbols)
		for sent < stop {
			n := stop - sent
			if n > maxSessionBatch {
				n = maxSessionBatch
			}
			poss, tx, rx := bufs.sizedBits(n)
			PositionsInto(cfg.Schedule, sent, poss)
			if err := enc.CodedBitBatch(tx, poss); err != nil {
				return nil, err
			}
			ch.CorruptBits(rx, tx)
			if err := obs.AddBatch(poss, rx); err != nil {
				return nil, err
			}
			sent += n
		}
		if !attempt {
			break
		}
		out, err := dec.DecodeBits(obs)
		if err != nil {
			return nil, err
		}
		res.Attempts++
		res.NodesExpanded += int64(out.NodesExpanded)
		res.NodesSaved += int64(out.NodesSaved)
		res.Decoded = out.Message
		if verify(out.Message) {
			res.Success = true
			res.ChannelUses = sent
			return res, nil
		}
	}
	res.ChannelUses = cfg.MaxSymbols
	return res, nil
}
