package link

import (
	"errors"
	"fmt"
	"time"

	"spinal/internal/core"
	"spinal/internal/crc"
	"spinal/internal/rng"
)

// Config holds the link parameters shared (by convention) between the sender
// and the receiver. Only the code seed and parameters must genuinely match;
// everything else is carried in each data frame.
type Config struct {
	// K and C are the spinal code parameters (bits per segment, bits per
	// I/Q dimension). Zero values select k=8, c=10.
	K int
	C int
	// Seed is the shared hash-family seed.
	Seed uint64
	// BeamWidth is the receiver's decoder beam; zero selects 16.
	BeamWidth int
	// SymbolsPerFrame is the number of coded symbols per data frame; zero
	// selects 48.
	SymbolsPerFrame int
	// Schedule selects the transmission order (ScheduleSequential or
	// ScheduleStriped8).
	Schedule uint8
	// MaxPasses bounds how many encoding passes the sender emits before
	// giving up on a packet; zero selects 60.
	MaxPasses int
	// AckPoll is the sender's initial acknowledgement wait after each flush
	// of data frames; zero selects 200 microseconds (in-memory links are
	// fast; UDP deployments should raise this). The wait is not fixed: every
	// flush that goes unacknowledged doubles it — with a deterministic ±25%
	// jitter so many senders never synchronize their polls — up to
	// AckPollMax, and it resets for each new message. Backing off keeps a
	// sender from busy-spinning redundant passes into a receiver that is
	// still working through its decode backlog.
	AckPoll time.Duration
	// AckPollMax caps the exponential ack-wait backoff; zero selects
	// 16 x AckPoll.
	AckPollMax time.Duration
	// SendDeadline bounds the wall-clock retransmission time of one Send
	// call. When it expires before an ack (or NACK) arrives, Send stops
	// cleanly: it returns the report gathered so far together with an error
	// wrapping ErrDeadline. Zero means no deadline (give up only on the
	// MaxPasses budget).
	SendDeadline time.Duration
	// FinalWait is how long the sender keeps listening for a late
	// acknowledgement after it has emitted its last frame, covering the time
	// the receiver needs to catch up on decoding; zero selects one second.
	FinalWait time.Duration
	// DecodeWorkers is how many decode attempts the receiver runs at once.
	// The goroutine that calls Receive is worker 0: it decodes between
	// transport drains. DecodeWorkers − 1 helper goroutines run beside it,
	// concurrently with ingest, so one worker starts no goroutine at all.
	// Attempts for one message are serialized by a per-message mutex, so any
	// worker may run any of them. Zero selects runtime.GOMAXPROCS.
	DecodeWorkers int
	// MaxTracked caps how many per-message decoding states the receiver
	// retains at once across all flows; the oldest (delivered first) are
	// evicted when the cap is hit. Zero selects DefaultMaxTracked.
	MaxTracked int
	// MaxTrackedPerFlow caps the in-flight messages of a single flow the
	// same way. Zero selects DefaultMaxTrackedPerFlow.
	MaxTrackedPerFlow int
	// MaxFlows caps how many flows the receiver tracks concurrently.
	// Admitting a flow beyond the cap sheds the flow with the oldest
	// activity and NACKs its undelivered messages. Zero selects
	// DefaultMaxFlows.
	MaxFlows int
	// FlowID is the sender's flow identity, carried in every data frame so
	// one receiver can serve many senders. Zero is a valid flow.
	FlowID uint32
	// FlushFrames is how many data frames the sender coalesces into one
	// SendBatch before it pauses to poll for an ack; zero selects 1, the
	// classic frame-by-frame cadence. Larger values amortize syscalls at
	// the cost of overshooting the ack by up to a flush of symbols.
	FlushFrames int
	// FlowDecodeBudget bounds how far ahead of the least-spent active flow
	// any flow's decode spend (tree nodes expanded) may run before the
	// receiver's scheduler defers its attempts. Deferral degrades
	// gracefully: frames keep accumulating in the deferred flow's pending
	// buffers and its attempts run as soon as the other flows catch up (or
	// it is the only flow with work) — nothing is ever dropped — so one
	// bad-channel flow cannot monopolize the decode workers. Zero disables
	// budget accounting.
	FlowDecodeBudget int64
	// IdleExpiry expires flows whose senders have gone silent: a flow with
	// no frame for this long is dropped, its undelivered messages are
	// NACKed, and its decoder leases and buffers return to their pools —
	// zombie senders stop pinning receiver state. Expiry is checked on the
	// receiver's Receive loop, so it needs no timer goroutine. Zero
	// disables idle expiry.
	IdleExpiry time.Duration
	// Search selects the receiver decoders' tree-search strategy: the exact
	// beam search (the zero value) or the approximate mode
	// (core.BeamDecoder.SetSearchMode). Receiver-local — it does not need
	// to match the sender, and the CRC guards delivery, so an approximate
	// decode can never deliver a wrong payload. When AdaptiveSearch is set
	// this is only the baseline for unpressured flows.
	Search core.SearchMode
	// AdaptiveSearch lets the receiver pick each flow's search strategy
	// from decode-budget pressure: flows whose attempts are being deferred
	// by the FlowDecodeBudget scheduler are switched to the approximate
	// mode, and revert to Config.Search once the pressure drains. Requires
	// FlowDecodeBudget, which supplies the pressure signal.
	AdaptiveSearch bool
}

// maxDecodeCost caps the decode work a single frame may advertise, measured
// as 2^K times the segment count of the message it describes. The wire
// format admits parameters (K=12 with a maximum-length message) whose beam
// decode runs minutes per attempt, so one hostile frame could otherwise pin
// a decode worker — a cheap denial of service against the receiver. Frames
// over the cap are rejected at admission, before any state is allocated.
// The cap is roughly 4x the advertised decode cost of the largest legitimate
// configuration (K=8 with a MaxPayload-sized message).
const maxDecodeCost = 1 << 21

// ingestBatch is how many frames the receiver pulls from a BatchTransport
// per receive call (the recvmmsg batch size on Linux UDP).
const ingestBatch = 32

// sendRetries is how many consecutive transient transport errors one send
// or ack-wait operation absorbs (with a short pause) before Send fails.
// ErrClosed is always fatal.
const sendRetries = 8

// maxFlushFrames bounds Config.FlushFrames.
const maxFlushFrames = 1024

// DefaultMaxTracked is the default cap on simultaneously tracked messages at
// the receiver, across all flows.
const DefaultMaxTracked = 256

// DefaultMaxTrackedPerFlow is the default cap on simultaneously tracked
// messages of one flow.
const DefaultMaxTrackedPerFlow = 64

// DefaultMaxFlows is the default cap on concurrently tracked flows.
const DefaultMaxFlows = 64

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 8
	}
	if c.C == 0 {
		c.C = 10
	}
	if c.Seed == 0 {
		c.Seed = core.DefaultSeed
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = 16
	}
	if c.SymbolsPerFrame == 0 {
		c.SymbolsPerFrame = 48
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 60
	}
	if c.AckPoll == 0 {
		c.AckPoll = 200 * time.Microsecond
	}
	if c.AckPollMax == 0 {
		c.AckPollMax = 16 * c.AckPoll
	}
	if c.FinalWait == 0 {
		c.FinalWait = time.Second
	}
	if c.MaxTracked == 0 {
		c.MaxTracked = DefaultMaxTracked
	}
	if c.MaxTrackedPerFlow == 0 {
		c.MaxTrackedPerFlow = DefaultMaxTrackedPerFlow
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = DefaultMaxFlows
	}
	if c.FlushFrames == 0 {
		c.FlushFrames = 1
	}
	return c
}

// validate rejects configurations the frame format or decoder cannot carry.
func (c Config) validate() error {
	if c.K < 1 || c.K > 12 {
		return fmt.Errorf("link: K must be in [1,12], got %d", c.K)
	}
	if c.C < 2 || c.C > 16 {
		return fmt.Errorf("link: C must be in [2,16], got %d", c.C)
	}
	if c.SymbolsPerFrame < 1 || c.SymbolsPerFrame > MaxSymbolsPerFrame {
		return fmt.Errorf("link: SymbolsPerFrame must be in [1,%d], got %d", MaxSymbolsPerFrame, c.SymbolsPerFrame)
	}
	if c.Schedule != ScheduleSequential && c.Schedule != ScheduleStriped8 {
		return fmt.Errorf("link: unknown schedule %d", c.Schedule)
	}
	if c.MaxPasses < 1 {
		return fmt.Errorf("link: MaxPasses must be positive, got %d", c.MaxPasses)
	}
	if c.DecodeWorkers < 0 {
		return fmt.Errorf("link: DecodeWorkers must be >= 0, got %d", c.DecodeWorkers)
	}
	if c.MaxTracked < 0 {
		return fmt.Errorf("link: MaxTracked must be >= 0, got %d", c.MaxTracked)
	}
	if c.MaxTrackedPerFlow < 0 {
		return fmt.Errorf("link: MaxTrackedPerFlow must be >= 0, got %d", c.MaxTrackedPerFlow)
	}
	if c.MaxFlows < 0 {
		return fmt.Errorf("link: MaxFlows must be >= 0, got %d", c.MaxFlows)
	}
	if c.AckPoll < 0 {
		return fmt.Errorf("link: AckPoll must be >= 0, got %v", c.AckPoll)
	}
	if c.AckPollMax < c.AckPoll {
		return fmt.Errorf("link: AckPollMax %v below AckPoll %v", c.AckPollMax, c.AckPoll)
	}
	if c.SendDeadline < 0 {
		return fmt.Errorf("link: SendDeadline must be >= 0, got %v", c.SendDeadline)
	}
	if c.FinalWait < 0 {
		return fmt.Errorf("link: FinalWait must be >= 0, got %v", c.FinalWait)
	}
	if c.FlowDecodeBudget < 0 {
		return fmt.Errorf("link: FlowDecodeBudget must be >= 0, got %d", c.FlowDecodeBudget)
	}
	if c.IdleExpiry < 0 {
		return fmt.Errorf("link: IdleExpiry must be >= 0, got %v", c.IdleExpiry)
	}
	if c.AdaptiveSearch && c.FlowDecodeBudget == 0 {
		return fmt.Errorf("link: AdaptiveSearch requires a FlowDecodeBudget (the budget ledger is the pressure signal)")
	}
	if c.FlushFrames < 1 || c.FlushFrames > maxFlushFrames {
		return fmt.Errorf("link: FlushFrames must be in [1,%d], got %d", maxFlushFrames, c.FlushFrames)
	}
	return nil
}

// MaxPayload is the largest payload one packet can carry (limited so decoder
// state stays small on embedded receivers).
const MaxPayload = 2048

// ErrDeadline reports that a Send call exhausted its Config.SendDeadline
// before the message was acknowledged or shed. Errors returned by Send for
// an expired deadline satisfy errors.Is(err, ErrDeadline), and the report
// accompanying the error carries the partial transmission counters.
var ErrDeadline = errors.New("link: send deadline exceeded")

// Sender is the transmitting half of the rateless link. Its frame buffers
// and symbol scratch are reused across packets, so Send must not be called
// concurrently on one Sender (it never was safe to assume otherwise; use one
// Sender per goroutine).
type Sender struct {
	tr  Transport
	btr BatchTransport // tr when it supports batched sends, else nil
	cfg Config

	// arena leases the marshal buffers of in-flight (queued, not yet
	// flushed) data frames; symbuf is the per-frame symbol scratch.
	arena  *Arena
	symbuf []complex128
	frames [][]byte
	leases []*ArenaBuf
	ackBuf []byte
	view   FrameView
	// msg is the CRC'd message buffer and scheds the schedules, both reused
	// across Send calls.
	msg    []byte
	scheds scheduleCache
	// jit drives the deterministic ack-backoff jitter (seeded from the
	// config, so a run's pacing replays exactly).
	jit *rng.Rand
}

// NewSender returns a sender that transmits over tr.
func NewSender(tr Transport, cfg Config) (*Sender, error) {
	if tr == nil {
		return nil, fmt.Errorf("link: nil transport")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sender{
		tr:     tr,
		cfg:    cfg,
		arena:  NewArena(0, cfg.FlushFrames+2),
		symbuf: make([]complex128, cfg.SymbolsPerFrame),
		frames: make([][]byte, 0, cfg.FlushFrames),
		leases: make([]*ArenaBuf, 0, cfg.FlushFrames),
		ackBuf: make([]byte, maxFrameSize),
		jit:    rng.New(cfg.Seed ^ uint64(cfg.FlowID)<<32 ^ 0x5bd1e995a4f09db5),
	}
	if bt, ok := tr.(BatchTransport); ok {
		s.btr = bt
	}
	return s, nil
}

// SendReport summarizes the transmission of one packet.
type SendReport struct {
	// Acked reports whether the receiver acknowledged successful decoding.
	Acked bool
	// Shed reports that the receiver negatively acknowledged the message —
	// its admission control dropped this sender's flow — so the sender
	// stopped retransmitting early. Mutually exclusive with Acked.
	Shed bool
	// SymbolsSent is the number of coded symbols transmitted.
	SymbolsSent int
	// FramesSent is the number of data frames transmitted.
	FramesSent int
	// Rate is the delivered payload bits per transmitted symbol (zero if the
	// packet was not acknowledged).
	Rate float64
	// AckFramesIgnored counts frames the ack wait discarded because they
	// were not this message's ack: acks for other flows or messages on a
	// shared transport, duplicated stale acks, and unparseable garbage.
	// A steadily climbing count flags a misdirected or corrupted feedback
	// path that the sender is silently riding out.
	AckFramesIgnored int
	// DeadlineExceeded reports that Config.SendDeadline expired before the
	// message resolved; Send pairs it with an error wrapping ErrDeadline.
	DeadlineExceeded bool
}

// Send transmits one packet ratelessly and returns once the receiver
// acknowledges it or the give-up bound is reached.
func (s *Sender) Send(msgID uint32, payload []byte) (*SendReport, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("link: empty payload")
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("link: payload of %d bytes exceeds limit %d", len(payload), MaxPayload)
	}

	// The CRC-32 appended here is what lets the receiver detect a successful
	// decode without a genie (§3.2 of the paper).
	s.msg = crc.Append32(append(s.msg[:0], payload...))
	messageBits := len(s.msg) * 8
	params := core.Params{K: s.cfg.K, C: s.cfg.C, MessageBits: messageBits, Seed: s.cfg.Seed}
	enc, err := core.NewEncoder(params, s.msg)
	if err != nil {
		return nil, err
	}
	sched, err := s.scheds.get(s.cfg.Schedule, params.NumSegments())
	if err != nil {
		return nil, err
	}

	report := &SendReport{}
	maxSymbols := s.cfg.MaxPasses * params.NumSegments()
	next := 0
	var deadline time.Time
	if s.cfg.SendDeadline > 0 {
		deadline = time.Now().Add(s.cfg.SendDeadline)
	}
	ackWait := s.cfg.AckPoll
	// On any early exit, return queued-but-unflushed marshal buffers to the
	// arena (flush clears both slices on the normal path).
	defer func() {
		for _, lb := range s.leases {
			lb.Release()
		}
		s.leases = s.leases[:0]
		s.frames = s.frames[:0]
	}()
	for next < maxSymbols {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			report.DeadlineExceeded = true
			return report, fmt.Errorf("link: message %d: %w", msgID, ErrDeadline)
		}
		count := s.cfg.SymbolsPerFrame
		if next+count > maxSymbols {
			count = maxSymbols - next
		}
		syms := s.symbuf[:count]
		for i := 0; i < count; i++ {
			syms[i] = enc.SymbolAt(sched.Pos(next + i))
		}
		frame := DataFrame{
			Version:     FrameV1,
			FlowID:      s.cfg.FlowID,
			MsgID:       msgID,
			MessageBits: uint32(messageBits),
			K:           uint8(s.cfg.K),
			C:           uint8(s.cfg.C),
			Schedule:    s.cfg.Schedule,
			Seed:        s.cfg.Seed,
			StartIndex:  uint32(next),
			Symbols:     syms,
		}
		lb := s.arena.Lease()
		buf, err := frame.AppendTo(lb.Data[:0])
		if err != nil {
			lb.Release()
			return nil, err
		}
		lb.Data = buf
		s.leases = append(s.leases, lb)
		s.frames = append(s.frames, buf)
		next += count
		report.FramesSent++
		report.SymbolsSent = next

		// Coalesce up to FlushFrames frames into one batched send before
		// pausing for the ack poll.
		if len(s.frames) < s.cfg.FlushFrames && next < maxSymbols {
			continue
		}
		if err := s.flush(deadline); err != nil {
			if errors.Is(err, ErrDeadline) {
				report.DeadlineExceeded = true
				return report, fmt.Errorf("link: message %d: %w", msgID, ErrDeadline)
			}
			return nil, err
		}
		acked, shed, err := s.waitForAck(report, msgID, s.jitter(ackWait), deadline)
		if err != nil {
			return nil, err
		}
		if acked {
			report.Acked = true
			report.Rate = float64(len(payload)*8) / float64(report.SymbolsSent)
			return report, nil
		}
		if shed {
			report.Shed = true
			return report, nil
		}
		// Unresolved: back off the next poll so we stop busy-spinning
		// redundant passes into a receiver still working its backlog.
		if ackWait < s.cfg.AckPollMax {
			ackWait *= 2
			if ackWait > s.cfg.AckPollMax {
				ackWait = s.cfg.AckPollMax
			}
		}
	}

	// Final, more patient wait: the last frames may still be in flight and the
	// receiver may still be working through its decode backlog.
	finalWait := s.cfg.FinalWait
	if !deadline.IsZero() {
		if remaining := time.Until(deadline); remaining < finalWait {
			finalWait = remaining
		}
	}
	if finalWait < 0 {
		finalWait = 0
	}
	acked, shed, err := s.waitForAck(report, msgID, finalWait, deadline)
	if err != nil {
		return nil, err
	}
	if acked {
		report.Acked = true
		report.Rate = float64(len(payload)*8) / float64(report.SymbolsSent)
		return report, nil
	}
	report.Shed = shed
	if !shed && !deadline.IsZero() && !time.Now().Before(deadline) {
		report.DeadlineExceeded = true
		return report, fmt.Errorf("link: message %d: %w", msgID, ErrDeadline)
	}
	return report, nil
}

// jitter spreads a backoff wait by a deterministic ±25% so many senders
// sharing a receiver never synchronize their ack polls.
func (s *Sender) jitter(wait time.Duration) time.Duration {
	if wait <= 0 {
		return wait
	}
	scaled := time.Duration(float64(wait) * (0.75 + 0.5*s.jit.Float64()))
	if scaled < time.Microsecond {
		scaled = time.Microsecond
	}
	return scaled
}

// flush hands the queued frames to the transport — one SendBatch when the
// transport supports it, a send loop otherwise — and returns their marshal
// buffers to the arena. Transient transport errors (anything but ErrClosed)
// are retried in place up to sendRetries times, resuming from the
// first unsent frame, so a momentary stall or injected fault does not fail
// the whole message.
func (s *Sender) flush(deadline time.Time) error {
	frames := s.frames
	var err error
	for retries := 0; len(frames) > 0; {
		if s.btr != nil {
			var n int
			n, err = s.btr.SendBatch(frames)
			frames = frames[n:]
		} else {
			err = s.tr.Send(frames[0])
			if err == nil {
				frames = frames[1:]
			}
		}
		if err == nil {
			retries = 0
			continue
		}
		if errors.Is(err, ErrClosed) || retries >= sendRetries {
			break
		}
		retries++
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			err = ErrDeadline
			break
		}
		time.Sleep(s.jitter(s.cfg.AckPoll))
	}
	for _, lb := range s.leases {
		lb.Release()
	}
	s.leases = s.leases[:0]
	s.frames = s.frames[:0]
	if err != nil {
		if errors.Is(err, ErrDeadline) {
			return err
		}
		return fmt.Errorf("link: sending data frame: %w", err)
	}
	return nil
}

// waitForAck polls the transport for an acknowledgement of msgID on this
// sender's flow. A positive ack reports acked; a negative ack — the
// receiver shed this flow under admission control — reports shed, telling
// Send to stop retransmitting. Frames that are not this message's ack are
// counted in report.AckFramesIgnored; transient receive errors are retried
// up to sendRetries times before failing the send.
func (s *Sender) waitForAck(report *SendReport, msgID uint32, wait time.Duration, sendDeadline time.Time) (acked, shed bool, err error) {
	buf := s.ackBuf
	end := time.Now().Add(wait)
	if !sendDeadline.IsZero() && sendDeadline.Before(end) {
		end = sendDeadline
	}
	retries := 0
	for {
		remaining := time.Until(end)
		if remaining < 0 {
			remaining = 0
		}
		n, err := s.tr.Receive(buf, remaining)
		switch {
		case err == nil:
			retries = 0
		case errors.Is(err, ErrTimeout):
			return false, false, nil
		case errors.Is(err, ErrClosed):
			return false, false, fmt.Errorf("link: waiting for ack: %w", err)
		default:
			// Transient fault (e.g. an injected transport error): ride it
			// out and keep listening, bounded by the retry budget.
			if retries >= sendRetries {
				return false, false, fmt.Errorf("link: waiting for ack: %w", err)
			}
			retries++
			if remaining == 0 {
				return false, false, nil
			}
			continue
		}
		if uerr := UnmarshalFrameInPlace(buf[:n], &s.view); uerr != nil {
			report.AckFramesIgnored++ // garbage (e.g. corrupted ack bytes)
			if remaining == 0 {
				return false, false, nil
			}
			continue
		}
		// Acks for other flows on a shared transport are ignored.
		if s.view.Kind == KindAck && s.view.MsgID == msgID && s.view.FlowID == s.cfg.FlowID {
			if s.view.Decoded {
				return true, false, nil
			}
			return false, true, nil
		}
		report.AckFramesIgnored++
		if remaining == 0 {
			return false, false, nil
		}
	}
}

// EncodeFrames builds the complete frame sequence a sender with this
// configuration would emit for one payload over `passes` encoding passes,
// without transmitting anything. A non-nil corrupt function is applied to
// every symbol before it is marshalled, so experiments can bake a
// deterministic channel into the frame bytes. It exists for benchmarks and
// replay-style experiments that want to drive a receiver with deterministic
// frames.
func EncodeFrames(cfg Config, flow, msg uint32, payload []byte, symbolsPerFrame, passes int, corrupt func(complex128) complex128) ([][]byte, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(payload) == 0 || len(payload) > MaxPayload {
		return nil, fmt.Errorf("link: payload of %d bytes out of range", len(payload))
	}
	if symbolsPerFrame < 1 || symbolsPerFrame > MaxSymbolsPerFrame {
		return nil, fmt.Errorf("link: symbolsPerFrame %d out of range", symbolsPerFrame)
	}
	if passes < 1 {
		return nil, fmt.Errorf("link: passes must be positive, got %d", passes)
	}
	message := crc.Append32(append([]byte(nil), payload...))
	params := core.Params{K: cfg.K, C: cfg.C, MessageBits: len(message) * 8, Seed: cfg.Seed}
	enc, err := core.NewEncoder(params, message)
	if err != nil {
		return nil, err
	}
	sched, err := scheduleFor(cfg.Schedule, params.NumSegments())
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	maxSymbols := passes * params.NumSegments()
	for next := 0; next < maxSymbols; next += symbolsPerFrame {
		count := symbolsPerFrame
		if next+count > maxSymbols {
			count = maxSymbols - next
		}
		frame := &DataFrame{
			Version:     FrameV1,
			FlowID:      flow,
			MsgID:       msg,
			MessageBits: uint32(params.MessageBits),
			K:           uint8(cfg.K),
			C:           uint8(cfg.C),
			Schedule:    cfg.Schedule,
			Seed:        cfg.Seed,
			StartIndex:  uint32(next),
			Symbols:     make([]complex128, count),
		}
		for i := 0; i < count; i++ {
			y := enc.SymbolAt(sched.Pos(next + i))
			if corrupt != nil {
				y = corrupt(y)
			}
			frame.Symbols[i] = y
		}
		buf, err := frame.Marshal()
		if err != nil {
			return nil, err
		}
		frames = append(frames, buf)
	}
	return frames, nil
}

// scheduleFor maps a wire schedule id to a core.Schedule.
func scheduleFor(id uint8, nseg int) (core.Schedule, error) {
	switch id {
	case ScheduleSequential:
		return core.NewSequentialSchedule(nseg)
	case ScheduleStriped8:
		return core.NewStripedSchedule(nseg, 8)
	default:
		return nil, fmt.Errorf("link: unknown schedule id %d", id)
	}
}

// scheduleCache memoizes scheduleFor for one goroutine. A schedule depends
// only on its id and segment count and is immutable, so every message of a
// given size shares one. The cache starts over when it holds
// maxCachedSchedules, which bounds what hostile frames can make it retain.
type scheduleCache struct {
	m map[scheduleKey]core.Schedule
}

type scheduleKey struct {
	id   uint8
	nseg int
}

const maxCachedSchedules = 16

func (c *scheduleCache) get(id uint8, nseg int) (core.Schedule, error) {
	k := scheduleKey{id: id, nseg: nseg}
	if sched, ok := c.m[k]; ok {
		return sched, nil
	}
	sched, err := scheduleFor(id, nseg)
	if err != nil {
		return nil, err
	}
	if c.m == nil || len(c.m) >= maxCachedSchedules {
		c.m = make(map[scheduleKey]core.Schedule)
	}
	c.m[k] = sched
	return sched, nil
}
