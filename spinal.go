// Package spinal implements rateless spinal codes (Perry, Balakrishnan,
// Shah — "Rateless Spinal Codes", HotNets 2011): a hash-based rateless
// channel code whose encoder maps message bits directly to dense I/Q
// constellation points and whose practical decoder replays the encoder over a
// pruned tree of message prefixes.
//
// The package is a thin, stable facade over the internal implementation.
// The API is batch-first: the rateless loop of the paper is pass-structured
// (symbols arrive a striped pass at a time, not one at a time), channels are
// interfaces that corrupt whole blocks and carry their metadata, and the
// decoder folds in whole batches of observations per attempt. A typical
// round trip looks like:
//
//	code, _ := spinal.NewCode(spinal.Config{MessageBits: 256})
//	stream, _ := code.EncodeStream(message)
//	dec, _ := code.NewDecoder()
//	ch, _ := spinal.NewAWGN(12 /* dB */, 1 /* seed */)
//	batch := make([]spinal.Symbol, code.NumSegments())
//	poss := make([]spinal.SymbolPos, len(batch))
//	tx := make([]complex128, len(batch))
//	rx := make([]complex128, len(batch))
//	for !decoded {
//		stream.NextBatch(batch) // one striped pass
//		for i, s := range batch {
//			poss[i], tx[i] = s.Pos, s.Value
//		}
//		ch.CorruptBlock(rx, tx)
//		dec.ObserveBatch(poss, rx)
//		decoded = bytesEqual(dec.Decode(), message) // or use a CRC
//	}
//
// For simulations, Code.TransmitOver runs the whole rateless loop (encode,
// send through a Channel, decode, stop on a verifier) and reports the
// achieved rate; the scalar Next/Observe methods remain for symbol-at-a-time
// callers. The cmd/spinalsim
// tool and the benchmarks in this module regenerate the paper's Figure 2 and
// related experiments on top of this API.
package spinal

import (
	"fmt"

	"spinal/internal/constellation"
	"spinal/internal/core"
)

// Config selects a spinal code. The zero value of every field picks the
// defaults used throughout the paper's evaluation (k=8, c=10, B=16, linear
// constellation mapping, punctured transmission schedule).
type Config struct {
	// MessageBits is the number of message bits per coded packet. Required.
	MessageBits int
	// K is the number of message bits hashed per spine segment (the paper's
	// k). Decoder complexity grows as 2^K; the unpunctured peak rate is K
	// bits/symbol. Default 8.
	K int
	// C is the number of coded bits mapped to each I and Q coordinate (the
	// paper's c). Default 10.
	C int
	// BeamWidth is the decoder's B: the number of candidate prefixes kept per
	// tree level. Default 16.
	BeamWidth int
	// Seed keys the hash family shared by encoder and decoder. Any value is
	// fine as long as both sides agree. Default is a fixed published constant.
	Seed uint64
	// Mapper selects the constellation mapping: "linear" (Eq. 3 of the
	// paper, default), "uniform", or "gaussian" (truncated Gaussian).
	Mapper string
	// Sequential disables the default striped (punctured) transmission
	// schedule — which interleaves spine values within each pass and lets
	// the code reach rates above K bits/symbol at high SNR — and forces the
	// plain sequential order instead, where every spine value is sent in
	// every pass. Default false (striped).
	Sequential bool
	// Search selects the decoder's tree-search strategy: the exact beam
	// search (the zero value, bit-identical to the decoder before the
	// approximate mode existed) or SearchApprox, which caps the breadth of
	// levels that have no symbols yet. The cap costs no delivered rate and
	// cuts expanded tree nodes several-fold (see the `frontier` scenario).
	// Parse CLI spellings with ParseSearchMode.
	Search SearchMode
}

// SearchMode selects the decoder's tree-search strategy; see Config.Search.
type SearchMode = core.SearchMode

const (
	// SearchExact is the full beam search of the paper (the default).
	SearchExact = core.SearchExact
	// SearchApprox is the exact search plus the bubble cap: a level with no
	// symbols yet keeps only the children of its max(2, B/8) cheapest
	// parents.
	SearchApprox = core.SearchApprox
)

// ParseSearchMode resolves the CLI spelling of a search strategy: "exact"
// (or empty) or "approx".
func ParseSearchMode(s string) (SearchMode, error) { return core.ParseSearchMode(s) }

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 8
	}
	if c.C == 0 {
		c.C = 10
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = 16
	}
	if c.Seed == 0 {
		c.Seed = core.DefaultSeed
	}
	if c.Mapper == "" {
		c.Mapper = "linear"
	}
	return c
}

// Code is an instantiated spinal code: fixed parameters plus the shared hash
// seed. It is immutable and safe for concurrent use; encoders and decoders
// created from it are not.
type Code struct {
	cfg    Config
	params core.Params
}

// NewCode validates the configuration and returns a Code.
func NewCode(cfg Config) (*Code, error) {
	cfg = cfg.withDefaults()
	if cfg.MessageBits <= 0 {
		return nil, fmt.Errorf("spinal: Config.MessageBits must be positive")
	}
	mapper, err := constellation.ByName(cfg.Mapper, cfg.C)
	if err != nil {
		return nil, err
	}
	params := core.Params{
		K:           cfg.K,
		C:           cfg.C,
		MessageBits: cfg.MessageBits,
		Seed:        cfg.Seed,
		Mapper:      mapper,
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cfg.BeamWidth < 1 {
		return nil, fmt.Errorf("spinal: beam width must be at least 1")
	}
	return &Code{cfg: cfg, params: params}, nil
}

// Config returns the configuration the code was built with (with defaults
// filled in).
func (c *Code) Config() Config { return c.cfg }

// MessageBytes returns the length in bytes of the packed messages this code
// encodes (MessageBits bits, LSB-first within each byte).
func (c *Code) MessageBytes() int { return core.MessageBytes(c.cfg.MessageBits) }

// NumSegments returns the number of spine values n/k.
func (c *Code) NumSegments() int { return c.params.NumSegments() }

// schedule builds the configured transmission schedule.
func (c *Code) schedule() (core.Schedule, error) {
	if c.cfg.Sequential {
		return core.NewSequentialSchedule(c.params.NumSegments())
	}
	return core.NewStripedSchedule(c.params.NumSegments(), 8)
}

// SymbolPos identifies a symbol within the rateless stream: which spine value
// it came from and in which pass.
type SymbolPos = core.SymbolPos

// Symbol is one transmitted constellation point together with its position.
type Symbol struct {
	Pos   SymbolPos
	Value complex128
}

// SymbolStream is the rateless encoder output for one message: an unbounded
// sequence of symbols in transmission order. NextBatch and EncodePass are
// the batch entry points the rateless loop is built around; Next and At
// remain for scalar callers.
type SymbolStream struct {
	enc   *core.Encoder
	sched core.Schedule
	next  int

	// batch scratch, reused across NextBatch calls
	posBuf []core.SymbolPos
	valBuf []complex128
}

// EncodeStream computes the spine of the message and returns its rateless
// symbol stream. The message must contain exactly MessageBits bits packed
// LSB-first (use MessageBytes for the slice length); unused padding bits in
// the final byte must be zero.
func (c *Code) EncodeStream(message []byte) (*SymbolStream, error) {
	enc, err := core.NewEncoder(c.params, message)
	if err != nil {
		return nil, err
	}
	sched, err := c.schedule()
	if err != nil {
		return nil, err
	}
	return &SymbolStream{enc: enc, sched: sched}, nil
}

// Next returns the next symbol of the stream. The stream never ends: spinal
// codes are rateless, so the caller decides when to stop transmitting.
func (s *SymbolStream) Next() Symbol {
	pos := s.sched.Pos(s.next)
	s.next++
	return Symbol{Pos: pos, Value: s.enc.SymbolAt(pos)}
}

// At returns the symbol at an arbitrary stream index without advancing the
// stream, which is useful for retransmissions.
func (s *SymbolStream) At(index int) (Symbol, error) {
	if index < 0 {
		return Symbol{}, fmt.Errorf("spinal: negative stream index %d", index)
	}
	pos := s.sched.Pos(index)
	return Symbol{Pos: pos, Value: s.enc.SymbolAt(pos)}, nil
}

// NextBatch fills dst with the next len(dst) symbols of the stream and
// advances it, returning dst. It is the batch counterpart of Next, backed by
// the encoder's vectorized range fill: one schedule fill and one encoder
// fill replace four calls per symbol. The symbols produced are identical to
// len(dst) successive Next calls.
func (s *SymbolStream) NextBatch(dst []Symbol) []Symbol {
	if len(dst) == 0 {
		return dst
	}
	if cap(s.posBuf) < len(dst) {
		s.posBuf = make([]core.SymbolPos, len(dst))
		s.valBuf = make([]complex128, len(dst))
	}
	poss := s.posBuf[:len(dst)]
	vals := s.valBuf[:len(dst)]
	core.PositionsInto(s.sched, s.next, poss)
	if err := s.enc.EncodeBatch(vals, poss); err != nil {
		// Schedule positions are valid by construction; a failure here is a
		// bug in the stream, not a caller error.
		panic(err)
	}
	for i := range dst {
		dst[i] = Symbol{Pos: poss[i], Value: vals[i]}
	}
	s.next += len(dst)
	return dst
}

// EncodePass returns the next whole pass of the stream — NumSegments
// symbols, one per spine value, in schedule order. It reuses dst when its
// capacity allows and allocates otherwise, so a loop can pass the previous
// result back in.
func (s *SymbolStream) EncodePass(dst []Symbol) []Symbol {
	n := s.enc.NumSegments()
	if cap(dst) < n {
		dst = make([]Symbol, n)
	}
	return s.NextBatch(dst[:n])
}

// Emitted returns how many symbols have been produced by Next and NextBatch
// so far.
func (s *SymbolStream) Emitted() int { return s.next }

// DecoderPool shares decoders across many concurrent messages — the serving
// pattern of a receiver handling many flows. Leasing a decoder from the pool
// returns a ready-to-use Decoder whose search buffers and observation
// container are recycled from earlier messages with the same code;
// Decoder.Release puts it back. Pooled decoders are bit-identical in
// behaviour to freshly constructed ones. The pool is safe for concurrent
// use; each leased Decoder still belongs to one goroutine at a time.
type DecoderPool struct {
	pool *core.DecoderPool
}

// PoolStats mirrors the pool counters for diagnostics.
type PoolStats = core.PoolStats

// NewDecoderPool returns a pool keeping up to capacity idle decoders across
// all codes. A capacity <= 0 disables caching (every lease builds fresh).
func NewDecoderPool(capacity int) *DecoderPool {
	return &DecoderPool{pool: core.NewDecoderPool(capacity)}
}

// Lease checks a decoder for the given code out of the pool, building one
// on a miss. Release the returned Decoder when its message is finished.
func (p *DecoderPool) Lease(c *Code) (*Decoder, error) {
	lease, err := p.pool.Lease(c.params, c.cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	// Release resets the search strategy to its default, so a cached
	// decoder needs the code's strategy installed again.
	if err := lease.Dec.SetSearchMode(c.cfg.Search); err != nil {
		lease.Release()
		return nil, err
	}
	return &Decoder{dec: lease.Dec, obs: lease.Obs, n: c.cfg.MessageBits, lease: lease}, nil
}

// Stats returns a snapshot of the pool counters.
func (p *DecoderPool) Stats() PoolStats { return p.pool.Stats() }

// Decoder accumulates received symbols for one message and produces the most
// likely message on demand using the B-bounded beam decoder of §3.2.
//
// Every Decode searches from the root over the symbols observed so far, so
// each attempt of the rateless receive loop — interleaving Observe and
// Decode — costs a full decode; attempt when a decode can succeed, not
// after every symbol. Reset reuses the decoder (and its allocations) for a
// new message.
type Decoder struct {
	dec   *core.BeamDecoder
	obs   *core.Observations
	n     int
	lease *core.LeasedDecoder // non-nil when leased from a DecoderPool
}

// NewDecoder returns an empty decoder for this code.
func (c *Code) NewDecoder() (*Decoder, error) {
	dec, err := core.NewBeamDecoder(c.params, c.cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	if err := dec.SetSearchMode(c.cfg.Search); err != nil {
		return nil, err
	}
	obs, err := core.NewObservations(c.params.NumSegments())
	if err != nil {
		return nil, err
	}
	return &Decoder{dec: dec, obs: obs, n: c.cfg.MessageBits}, nil
}

// Observe records the received value of the symbol at pos. A NaN or
// infinite value is rejected with an error and not recorded.
func (d *Decoder) Observe(pos SymbolPos, received complex128) error {
	return d.obs.Add(pos, received)
}

// ObserveBatch records one received value per position — a whole frame or
// pass at a time. The batch is validated before anything is recorded (a
// position out of range or a NaN or infinite value rejects it whole).
// ObserveBatch followed by one Decode is bit-identical — same message, same cost, same NodesExpanded — to observing
// the same symbols one Observe call at a time.
func (d *Decoder) ObserveBatch(poss []SymbolPos, received []complex128) error {
	return d.obs.AddBatch(poss, received)
}

// Observations returns the number of symbols observed so far.
func (d *Decoder) Observations() int { return d.obs.Count() }

// Decode returns the most likely message under everything observed so far.
// Whether that message is correct is for the caller to verify (by CRC in a
// real system, by comparison in simulations); spinal decoding itself is
// rateless and can always be retried after more symbols arrive.
func (d *Decoder) Decode() ([]byte, error) {
	out, err := d.dec.Decode(d.obs)
	if err != nil {
		return nil, err
	}
	return out.Message, nil
}

// Reset discards all observations so the decoder (and its buffers) can be
// reused for a new message of the same code.
func (d *Decoder) Reset() {
	d.obs.Reset()
}

// Release returns a pool-leased decoder to its DecoderPool; the decoder must
// not be used afterwards. On a decoder built by Code.NewDecoder it is a
// no-op.
func (d *Decoder) Release() {
	d.lease.Release()
}

// NodesExpanded reports the number of decoding-tree nodes expanded by the
// most recent Decode call — the cost of the attempt in the paper's unit of
// one hash evaluation plus one cost computation. The beam bounds it far
// below the size of the full tree.
func (d *Decoder) NodesExpanded() int { return d.dec.NodesExpanded() }

// Equal reports whether two packed messages of this code's length are
// identical; it is a convenience for genie-style simulations.
func (c *Code) Equal(a, b []byte) bool {
	return core.EqualMessages(a, b, c.cfg.MessageBits)
}

// TransmitResult summarizes a rateless transmission simulated by
// TransmitOver or TransmitBitsOver.
type TransmitResult struct {
	// Decoded is the receiver's final message estimate.
	Decoded []byte
	// Delivered reports whether the verifier accepted the decode.
	Delivered bool
	// Symbols is the number of channel uses consumed.
	Symbols int
	// Rate is MessageBits/Symbols when delivered, zero otherwise.
	Rate float64
}

// sessionConfig assembles the core session configuration shared by all
// transmit entry points, with a genie verifier filled in when the caller
// passes none.
func (c *Code) sessionConfig(message []byte, verify func([]byte) bool, maxSymbols int) (core.SessionConfig, core.Verifier, error) {
	if verify == nil {
		verify = core.GenieVerifier(message, c.cfg.MessageBits)
	}
	sched, err := c.schedule()
	if err != nil {
		return core.SessionConfig{}, nil, err
	}
	return core.SessionConfig{
		Params:     c.params,
		BeamWidth:  c.cfg.BeamWidth,
		Schedule:   sched,
		MaxSymbols: maxSymbols,
		Search:     c.cfg.Search,
	}, core.Verifier(verify), nil
}

// transmitResult converts a core session transcript to the facade form.
func (c *Code) transmitResult(res *core.Result) *TransmitResult {
	return &TransmitResult{
		Decoded:   res.Decoded,
		Delivered: res.Success,
		Symbols:   res.ChannelUses,
		Rate:      res.Rate(c.cfg.MessageBits),
	}
}

// TransmitOver runs the full rateless loop for one message over a Channel:
// whole passes of symbols are generated in schedule order, corrupted block
// by block, folded into the decoder in batches, and decoded at the attempt
// cadence of the receiver policy; the loop stops as soon as verify accepts
// the decoded message or maxSymbols have been spent. A nil verify uses the
// genie rule (compare against the transmitted message), which is the paper's
// simulation methodology; a maxSymbols of zero selects a 400-pass budget.
func (c *Code) TransmitOver(message []byte, ch Channel, verify func([]byte) bool, maxSymbols int) (*TransmitResult, error) {
	sessionCfg, v, err := c.sessionConfig(message, verify, maxSymbols)
	if err != nil {
		return nil, err
	}
	res, err := core.RunChannelSession(sessionCfg, message, ch, v)
	if err != nil {
		return nil, err
	}
	return c.transmitResult(res), nil
}

// TransmitBitsOver is the binary-channel counterpart of TransmitOver: the
// encoder emits one coded bit per channel use (the paper's BSC variant) and
// the decoder uses the Hamming metric. The BitChannel must emit hard 0/1
// decisions (see NewBSC).
func (c *Code) TransmitBitsOver(message []byte, ch BitChannel, verify func([]byte) bool, maxUses int) (*TransmitResult, error) {
	sessionCfg, v, err := c.sessionConfig(message, verify, maxUses)
	if err != nil {
		return nil, err
	}
	res, err := core.RunBitChannelSession(sessionCfg, message, ch, v)
	if err != nil {
		return nil, err
	}
	return c.transmitResult(res), nil
}
