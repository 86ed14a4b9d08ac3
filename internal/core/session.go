package core

import (
	"errors"
	"slices"
)

// This file implements the rateless transmission loop of §3.2: the sender
// keeps emitting symbols (in schedule order) and the receiver keeps feeding
// them to the decoder, attempting a decode according to an attempt policy,
// until the decoded message is verified (by a genie in the paper's
// simulations, by a CRC in a deployed link layer) or a give-up bound is hit.

// AttemptPolicy decides after which received channel uses the receiver runs
// the decoder. Attempting after every symbol gives the finest rate
// granularity but costs the most computation; attempting once per pass is
// cheaper and loses little at low SNR where many passes are needed anyway. A
// policy may learn across messages: a session asks it once where a message's
// first attempt runs and tells it where the message decoded.
type AttemptPolicy interface {
	// FirstAttempt returns the channel-use count of a new message's first
	// decode attempt, at least minUses (the noiseless bound), for a code with
	// nseg spine values; held reports that the policy's memory, not its grid,
	// placed it there.
	FirstAttempt(minUses, nseg int) (first int, held bool)
	// ShouldAttempt reports whether to run the decoder after `received`
	// channel uses (1-based), past the first attempt.
	ShouldAttempt(received, nseg int) bool
	// Decoded records that the message decoded after `uses` channel uses;
	// held is what FirstAttempt reported for it.
	Decoded(uses, nseg int, held bool)
}

// AttemptEveryPass attempts a decode only when a whole pass worth of symbols
// (n/k of them) has arrived.
type AttemptEveryPass struct{}

// FirstAttempt implements AttemptPolicy: the first pass boundary from minUses.
func (AttemptEveryPass) FirstAttempt(minUses, nseg int) (int, bool) {
	return (minUses + nseg - 1) / nseg * nseg, false
}

// ShouldAttempt implements AttemptPolicy.
func (AttemptEveryPass) ShouldAttempt(received, nseg int) bool {
	return nseg > 0 && received%nseg == 0
}

// Decoded implements AttemptPolicy; the policy keeps no memory.
func (AttemptEveryPass) Decoded(uses, nseg int, held bool) {}

// AttemptAdaptive attempts after every symbol for the first few passes (where
// each extra symbol can change the achieved rate substantially) and once per
// pass afterwards (where rates are low and per-symbol attempts are wasted
// work). It is the sessions' default policy, run by spinal.Code.TransmitOver
// and TransmitBitsOver, the frontier scenario and BenchmarkRatelessDecode;
// every attempt is a full decode, so the default window of 8 passes costs
// 218240 nodes per message at 0 dB with the Figure 2 code. Every spinal rate
// trial of the simulator runs FinePasses: 2 and stops at the first decode
// its genie accepts. The bsc scenario attempts every pass; the link's
// receiver and the adapt scenario's rateless sender run a DecodeHistory.
type AttemptAdaptive struct {
	// FinePasses is the number of initial passes decoded at per-symbol
	// granularity. Zero means 8.
	FinePasses int
}

// DefaultFinePasses is the fine-grained window used when
// AttemptAdaptive.FinePasses is zero.
const DefaultFinePasses = 8

// FirstAttempt implements AttemptPolicy.
func (a AttemptAdaptive) FirstAttempt(minUses, nseg int) (int, bool) {
	if a.ShouldAttempt(minUses, nseg) {
		return minUses, false
	}
	return AttemptEveryPass{}.FirstAttempt(minUses, nseg)
}

// ShouldAttempt implements AttemptPolicy.
func (a AttemptAdaptive) ShouldAttempt(received, nseg int) bool {
	fine := a.FinePasses
	if fine <= 0 {
		fine = DefaultFinePasses
	}
	return received <= fine*nseg || AttemptEveryPass{}.ShouldAttempt(received, nseg)
}

// Decoded implements AttemptPolicy; the policy keeps no memory.
func (AttemptAdaptive) Decoded(uses, nseg int, held bool) {}

// The decode history's rule, in messages rather than time.
const (
	historyLen    = 16 // recent decode points remembered
	historyMin    = 4  // records needed before the threshold applies
	thresholdRank = 1  // the second-smallest record, so one lucky decode does not set it
	probeEvery    = 64 // every probeEvery-th message attempts unheld, probing below it
)

// DecodeHistory is the attempt policy that learns when a stream of messages
// under one code decodes (RateMore, Iannucci et al., MobiCom'12, learns the
// same decode CDF). It keeps the stream's recent decode points in channel
// uses per segment, so payload sizes share one history, and holds a new
// message's first attempt at a low quantile of them; other attempts come
// once per pass. The link's receiver keeps one per flow, and a session
// stream passes one to each of its messages in turn. The zero value is
// empty. It is not safe for concurrent use.
type DecodeHistory struct {
	AttemptEveryPass
	passes [historyLen]float64
	n      int    // records held, at most historyLen
	next   int    // ring slot the next record overwrites
	msgs   uint64 // messages FirstAttempt counted; drives the probe
}

// Threshold returns the thresholdRank-th smallest record, in channel uses per
// segment, or 0 with fewer than historyMin records.
func (h *DecodeHistory) Threshold() float64 {
	if h.n < historyMin {
		return 0
	}
	sorted := h.passes
	slices.Sort(sorted[:h.n])
	return sorted[thresholdRank]
}

// FirstAttempt implements AttemptPolicy. It counts a new message and holds
// it at the threshold when that lies past minUses, unless the message is the
// periodic probe. The threshold converts to channel uses rounding down, but
// the 1e-9 absorbs the float rounding of uses/nseg·nseg, so a record at this
// size converts back to exactly its decode point.
func (h *DecodeHistory) FirstAttempt(minUses, nseg int) (int, bool) {
	h.msgs++
	if first := int(h.Threshold()*float64(nseg) + 1e-9); first > minUses && h.msgs%probeEvery != 0 {
		return first, true
	}
	return h.AttemptEveryPass.FirstAttempt(minUses, nseg)
}

// Decoded implements AttemptPolicy: it records the message's decode point. A
// held message decodes at or above the threshold whatever the channel does,
// so only an unheld one can show the channel improved: one that decodes
// below the threshold restarts the history from its own record.
func (h *DecodeHistory) Decoded(uses, nseg int, held bool) {
	passes := float64(uses) / float64(nseg)
	if !held && passes < h.Threshold() {
		*h = DecodeHistory{}
	}
	h.passes[h.next] = passes
	h.next = (h.next + 1) % historyLen
	h.n = min(h.n+1, historyLen)
}

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
	// Schedule is the symbol transmission order; nil means the unpunctured
	// sequential schedule.
	Schedule Schedule
	// Attempts is the decode-attempt policy; nil means AttemptAdaptive. A
	// DecodeHistory learns from every session it is passed to.
	Attempts AttemptPolicy
	// MaxSymbols bounds the number of channel uses before the sender gives up
	// on the message. Zero selects 400 passes worth of symbols.
	MaxSymbols int
	// Search selects the decoder's tree-search strategy: the exact beam
	// search (the zero value) or the approximate mode (see
	// BeamDecoder.SetSearchMode).
	Search SearchMode
	// Pool supplies the session's decoder and observation containers as a
	// lease, released when the session returns, so callers running many
	// sessions — the experiment trial runner in particular — reuse decoder
	// buffers across them. Nil leases from one shared capacity-0 pool,
	// which builds a decoder per session. Pooled and freshly built
	// decoders are bit-identical.
	Pool *DecoderPool
}

// unpooled is the pool of sessions without one: capacity 0 caches nothing,
// so it holds no decoder between sessions.
var unpooled = NewDecoderPool(0)

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
	if c.Pool == nil {
		c.Pool = unpooled
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
// stream with no decode attempt (the longest runs up to a first attempt that
// a DecodeHistory holds) are emitted in sub-batches of at most this many
// symbols.
const maxSessionBatch = 4096

// nextAttempt scans forward from `sent` transmitted channel uses to the next
// count at which the receiver runs the decoder (first, then wherever the
// policy says), or to maxSymbols if no attempt point remains in the budget.
// The boolean reports whether the returned count is an attempt point.
func nextAttempt(att AttemptPolicy, sent, first, nseg, maxSymbols int) (int, bool) {
	for sent < maxSymbols {
		sent++
		if sent == first || sent > first && att.ShouldAttempt(sent, nseg) {
			return sent, true
		}
	}
	return maxSymbols, false
}

// sessionChannel is what the rateless loop needs to know about one kind of
// channel, whose channel uses carry values of type T.
type sessionChannel[T complex128 | byte] interface {
	// minUses is the noiseless bound: no decode from fewer channel uses can
	// carry the whole message, so the loop makes no attempt before it.
	minUses(p Params) int
	// send encodes the channel uses at poss into tx, passes them through
	// the channel into rx and folds rx into the lease's container.
	send(enc *Encoder, l *LeasedDecoder, poss []SymbolPos, tx, rx []T) error
	// decode runs one attempt over the lease's container.
	decode(l *LeasedDecoder) (*DecodeResult, error)
}

// symbolChannel carries complex symbols and decodes with the Euclidean
// metric.
type symbolChannel struct{ ch BlockChannel }

// minUses implements sessionChannel: a symbol carries at most 2c coded bits.
func (symbolChannel) minUses(p Params) int { return (p.MessageBits + 2*p.C - 1) / (2 * p.C) }

func (s symbolChannel) send(enc *Encoder, l *LeasedDecoder, poss []SymbolPos, tx, rx []complex128) error {
	if err := enc.EncodeBatch(tx, poss); err != nil {
		return err
	}
	s.ch.CorruptBlock(rx, tx)
	return l.Obs.AddBatch(poss, rx)
}

func (symbolChannel) decode(l *LeasedDecoder) (*DecodeResult, error) { return l.Dec.Decode(l.Obs) }

// bitChannel carries one coded bit per channel use and decodes with the
// Hamming metric, the ML rule for the BSC.
type bitChannel struct{ ch BlockBitChannel }

// minUses implements sessionChannel: the BSC carries at most one bit per
// channel use.
func (bitChannel) minUses(p Params) int { return p.MessageBits }

func (b bitChannel) send(enc *Encoder, l *LeasedDecoder, poss []SymbolPos, tx, rx []byte) error {
	obs, err := l.Bits()
	if err != nil {
		return err
	}
	if err := enc.CodedBitBatch(tx, poss); err != nil {
		return err
	}
	b.ch.CorruptBits(rx, tx)
	return obs.AddBatch(poss, rx)
}

func (bitChannel) decode(l *LeasedDecoder) (*DecodeResult, error) {
	obs, err := l.Bits()
	if err != nil {
		return nil, err
	}
	return l.Dec.DecodeBits(obs)
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
	if ch == nil {
		return nil, errNilChannel
	}
	return runSession(cfg, message, symbolChannel{ch}, verify)
}

// RunBitChannelSession is the binary-channel counterpart of
// RunChannelSession: the encoder emits one coded bit per (spine value, pass)
// and the decoder uses the Hamming metric, which is the ML rule for the BSC.
func RunBitChannelSession(cfg SessionConfig, message []byte, ch BlockBitChannel, verify Verifier) (*Result, error) {
	if ch == nil {
		return nil, errNilChannel
	}
	return runSession(cfg, message, bitChannel{ch}, verify)
}

var errNilChannel = errors.New("core: nil channel or verifier")

// runSession is the rateless loop of both entry points. It leases the
// session's decoder from cfg.Pool, then sends every channel use up to the
// next attempt point in batches, decodes, and stops when verify accepts or
// the budget is spent.
func runSession[T complex128 | byte](cfg SessionConfig, message []byte, ch sessionChannel[T], verify Verifier) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if verify == nil {
		return nil, errNilChannel
	}
	enc, err := NewEncoder(cfg.Params, message)
	if err != nil {
		return nil, err
	}
	lease, err := cfg.Pool.Lease(cfg.Params, cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	if err := lease.Dec.SetSearchMode(cfg.Search); err != nil {
		return nil, err
	}

	res := &Result{}
	nseg := cfg.Params.NumSegments()
	minUses := ch.minUses(cfg.Params)
	// A first attempt held past the budget runs on its last channel use, as
	// the link caps its threshold at the sender's budget.
	first, held := cfg.Attempts.FirstAttempt(minUses, nseg)
	first = min(first, cfg.MaxSymbols)
	var poss []SymbolPos
	var tx, rx []T
	sent := 0
	for sent < cfg.MaxSymbols {
		stop, attempt := nextAttempt(cfg.Attempts, sent, first, nseg, cfg.MaxSymbols)
		for sent < stop {
			n := min(stop-sent, maxSessionBatch)
			if cap(poss) < n {
				poss, tx, rx = make([]SymbolPos, n), make([]T, n), make([]T, n)
			}
			poss, tx, rx = poss[:n], tx[:n], rx[:n]
			PositionsInto(cfg.Schedule, sent, poss)
			if err := ch.send(enc, lease, poss, tx, rx); err != nil {
				return nil, err
			}
			sent += n
		}
		if !attempt {
			break
		}
		out, err := ch.decode(lease)
		if err != nil {
			return nil, err
		}
		res.Attempts++
		res.NodesExpanded += int64(out.NodesExpanded)
		res.NodesSaved += int64(out.NodesSaved)
		res.Decoded = out.Message
		if verify(out.Message) {
			cfg.Attempts.Decoded(sent, nseg, held)
			res.Success = true
			res.ChannelUses = sent
			return res, nil
		}
	}
	res.ChannelUses = cfg.MaxSymbols
	return res, nil
}
