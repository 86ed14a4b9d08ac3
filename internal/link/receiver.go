package link

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spinal/internal/channel"
	"spinal/internal/core"
	"spinal/internal/crc"
)

// Receiver is the receiving end of the rateless link, rebuilt as a
// flow-multiplexed link engine: many logical flows (sender identities) share
// one receiver, one transport socket, one decoder pool and one bounded pool
// of decode workers. It applies a simulated radio impairment to every
// arriving symbol, feeds the result to the spinal decoder, and acknowledges
// a packet as soon as the decoded message passes its CRC.
//
// Incoming frames are demultiplexed by (FlowID, MsgID) into per-message
// state machines grouped per flow. When the transport can address
// individual peers (PacketTransport, e.g. UDP), each flow's acks are sent to
// the source address of that flow's frames, which is what lets one UDP
// socket serve many independent sender processes.
//
// Decoding runs on a bounded set of workers. The goroutine that calls
// Receive is worker 0: after each drain of the transport it runs one queued
// decode attempt and sends its ack, so a small packet is parsed, decoded and
// acknowledged on one thread. Config.DecodeWorkers − 1 helper goroutines run
// the attempts queued beyond that one, concurrently with ingest. Pending
// attempts are scheduled round-robin over the flows that have work — not
// FIFO over frames — so one chatty flow cannot starve the others; within a
// flow, attempts run oldest-first. A message's attempts are serialized by a
// per-message mutex, since its decoder and observations are not safe for
// concurrent use; any worker may run any attempt.
//
// Decoders are not built per message: they are leased from a shared
// core.DecoderPool keyed by code parameters, so their search buffers are
// recycled across messages and across flows. The pool keeps
// up to core.DefaultDecoderPoolCapacity idle decoders.
//
// Bounded state, three ways: MaxTrackedPerFlow caps the in-flight messages
// of each flow (oldest evicted first, delivered before in-flight), MaxTracked
// caps the total across flows the same way, and MaxFlows caps the number of
// concurrently tracked flows — admitting a new flow beyond it sheds the flow
// with the oldest activity, sending a negative ack for each of its
// undelivered messages so the sender stops retransmitting promptly. The
// flows' decode histories live in a table of their own, also capped at
// MaxFlows, so a flow keeps its history when its tracked state goes. A frame
// for an evicted message or shed flow simply starts fresh state, so shedding
// costs work but never correctness. The one observable consequence is that
// delivery is at-least-once rather than exactly-once: if a sender whose ack
// was lost retransmits a message after its delivered state aged out of the
// grace window, the recreated state decodes and delivers it again.
// Applications that care deduplicate by (FlowID, MsgID).
type Receiver struct {
	tr         Transport
	ptr        PacketTransport      // tr when it can address peers, else nil
	btr        BatchTransport       // tr when it can receive batches, else nil
	bptr       BatchPacketTransport // both at once, else nil
	cfg        Config
	impairment channel.SymbolChannel

	flows   map[uint32]*flowState
	nmsgs   int    // total tracked messages across flows (ingest goroutine only)
	seq     uint64 // data frames processed; drives eviction (ingest goroutine only)
	shed    uint64 // flows shed by admission control (ingest goroutine only)
	expired uint64 // flows dropped by idle expiry (ingest goroutine only)
	// thresholded counts new message states whose first attempt waits for
	// the flow's learned decode threshold (ingest goroutine only).
	thresholded uint64
	// scratchPos/scratchY are the per-frame symbol batch buffers (ingest
	// goroutine only): positions and impaired values, index-aligned.
	scratchPos []core.SymbolPos
	scratchY   []complex128
	// scheds holds the schedules of the code shapes seen (ingest goroutine
	// only).
	scheds scheduleCache
	// rxBufs/rxAddrs are the ingest batch: ingestBatch full-capacity frame
	// buffers and their source addresses. view is the reused in-place frame
	// parse.
	rxBufs  [][]byte
	rxAddrs []net.Addr
	view    FrameView
	pool    *core.DecoderPool
	eng     *flowEngine
}

// Delivered is one successfully decoded packet.
type Delivered struct {
	// FlowID identifies the sender the packet came from.
	FlowID  uint32
	MsgID   uint32
	Payload []byte
	// Symbols is how many coded symbols had been received when the packet
	// decoded, which determines the achieved rate.
	Symbols int
}

// rxBatch is a batch of received (already impaired) symbols waiting to be
// folded into a message's observations by its decode worker: positions and
// values are index-aligned, so a whole batch lands in the observation
// container through one AddBatch call.
type rxBatch struct {
	pos []core.SymbolPos
	y   []complex128
}

// append adds one symbol to the batch.
func (b *rxBatch) append(pos core.SymbolPos, y complex128) {
	b.pos = append(b.pos, pos)
	b.y = append(b.y, y)
}

// extend appends the positions and values of another batch.
func (b *rxBatch) extend(pos []core.SymbolPos, y []complex128) {
	b.pos = append(b.pos, pos...)
	b.y = append(b.y, y...)
}

// reset empties the batch, keeping its allocations.
func (b *rxBatch) reset() {
	b.pos = b.pos[:0]
	b.y = b.y[:0]
}

func (b *rxBatch) len() int { return len(b.pos) }

// flowState groups the tracked messages of one flow. It is touched only by
// the ingest goroutine.
type flowState struct {
	id      uint32
	states  map[uint32]*msgState
	lastSeq uint64 // last data frame seen for this flow
	// lastFrame is the wall-clock arrival of the flow's latest data frame;
	// it drives Config.IdleExpiry (maintained only when expiry is enabled).
	lastFrame time.Time
}

// msgState tracks the decoding progress of one packet of one flow. The
// decoder lease lives for the whole packet; attempts are serialized by
// decodeMu, and each runs the beam search from the root over every symbol
// received so far. The ingest goroutine communicates with the workers through the mu-guarded
// pending buffer.
type msgState struct {
	flow   uint32
	id     uint32
	params core.Params
	sched  core.Schedule
	code   codeKey
	// minUses is the per-message attempt gate: no decode runs until the
	// observations hold this many symbols. It is the noiseless bound
	// ⌈n/2c⌉ raised to the flow's learned decode threshold (see
	// core.DecodeHistory), fixed when the state is created.
	minUses int

	// decodeMu serializes decode attempts (any pool worker and the
	// synchronous HandleFrame path); the lease's Dec and Obs are only
	// touched under it.
	decodeMu sync.Mutex

	mu      sync.Mutex // guards the fields below (ingest <-> worker)
	lease   *core.LeasedDecoder
	addr    net.Addr // reply address for this flow's acks (nil on plain transports)
	pending rxBatch
	// draining is the worker-owned half of a double buffer: attempt swaps it
	// with pending under mu, then folds it into obs without holding the
	// lock, so ingest never blocks behind a long decode of the same message.
	draining rxBatch
	queued   bool
	// attempting marks a decode in flight; while set, the lease must not be
	// reclaimed by eviction (the attempt returns it when it sees evicted).
	attempting bool
	done       bool
	// evicted marks a state dropped from the tracking map while an attempt
	// token for it may still be queued; the orphaned attempt must not decode
	// or deliver — a recreated state owns the message from then on.
	evicted bool
	payload []byte
	symbols int
	nodes   int64
	lastSeq uint64
}

// doneGraceFrames is how many subsequent data frames a delivered message's
// state is retained for after its last own frame, so that retransmissions
// racing the ack still get the ack repeated instead of a redecode.
const doneGraceFrames = 64

// evictSweepEvery is how often (in processed data frames) the ingest path
// sweeps delivered states past their grace period.
const evictSweepEvery = 32

// receivePoll is the slice Receive blocks on the transport per iteration
// while helpers are decoding, so the packets they complete are surfaced
// promptly even while frames keep arriving.
const receivePoll = 2 * time.Millisecond

// NewReceiver returns a receiver that reads frames from tr and corrupts each
// symbol with the given impairment before decoding (use an impair pipeline,
// such as impair.NewQuantizedAWGN, to model the radio, or nil for a perfect
// channel).
func NewReceiver(tr Transport, cfg Config, impairment channel.SymbolChannel) (*Receiver, error) {
	if tr == nil {
		return nil, fmt.Errorf("link: nil transport")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := cfg.DecodeWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Receiver{
		tr:         tr,
		cfg:        cfg,
		impairment: impairment,
		flows:      map[uint32]*flowState{},
		pool:       core.NewDecoderPool(core.DefaultDecoderPoolCapacity),
		eng:        newFlowEngine(tr, workers, cfg.FlowDecodeBudget, cfg.Search, cfg.AdaptiveSearch, cfg.MaxFlows),
	}
	if pt, ok := tr.(PacketTransport); ok {
		r.ptr = pt
	}
	if bt, ok := tr.(BatchTransport); ok {
		r.btr = bt
	}
	if bpt, ok := tr.(BatchPacketTransport); ok {
		r.bptr = bpt
	}
	batch := ingestBatch
	if r.btr == nil && r.bptr == nil {
		batch = 1 // single-frame transport: one reused buffer
	}
	r.rxBufs = make([][]byte, batch)
	for i := range r.rxBufs {
		r.rxBufs[i] = make([]byte, maxFrameSize)
	}
	r.rxAddrs = make([]net.Addr, batch)
	// Backstop for receivers dropped without Close (benchmarks and tests
	// build them freely): stop the helpers once the receiver is unreachable.
	// The engine never references the receiver, so this cleanup can run.
	if workers > 1 {
		runtime.AddCleanup(r, func(e *flowEngine) { e.stop() }, r.eng)
	}
	return r, nil
}

// Close runs every queued decode attempt to its end (on the helpers, or on
// the caller when there are none), stops the helpers and then returns every
// tracked message's decoder lease to the pool, so a receiver closed after a
// chaotic run leaves the pool's Outstanding counter at zero, and empties
// the decode-history table. It must not be called concurrently with
// Receive. The receiver must not be used afterwards.
func (r *Receiver) Close() error {
	r.eng.stop()
	// The queues have drained: no attempt is queued or in flight, so
	// dropping each state reclaims its lease directly.
	for _, fs := range r.flows {
		r.dropFlow(fs, false)
	}
	r.eng.mu.Lock()
	clear(r.eng.hist)
	r.eng.mu.Unlock()
	return nil
}

// Receive blocks until one new packet is decoded (returning it) or the
// timeout elapses (returning ErrTimeout).
//
// Receive drains every frame queued on the transport into the per-message
// pending buffers, then decodes inline: its goroutine is decode worker 0
// and runs one queued attempt, acknowledging the packet if it decodes,
// before it drains the transport again. Attempts queued beyond that one go
// to the helpers. An attempt, once started, runs to its end, so one long
// decode may overrun timeout. On a BatchTransport the drain moves up to
// ingestBatch frames per transport call.
func (r *Receiver) Receive(timeout time.Duration) (*Delivered, error) {
	deadline := time.Now().Add(timeout)
	for {
		// Read the load before take: if no attempt is outstanding afterwards,
		// every finished attempt's result was already visible to take, so
		// blocking for the full remaining time cannot strand a delivery.
		queued, outstanding := r.eng.load()
		if d, err := r.eng.take(); d != nil || err != nil {
			return d, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, ErrTimeout
		}
		// With an attempt queued, only poll the transport: this goroutine
		// runs the attempt right after the drain. While only helpers have
		// attempts in flight, block in short slices so the packets they
		// complete are returned promptly; on an idle link, block the whole
		// timeout.
		slice := remaining
		switch {
		case queued > 0:
			slice = 0
		case outstanding > 0 && slice > receivePoll:
			slice = receivePoll
		}
		// Idle expiry runs on this loop (no timer goroutine), so while
		// silent flows are tracked the blocking slice is capped at the
		// expiry interval to keep expiry responsive on a quiet link.
		if r.cfg.IdleExpiry > 0 {
			r.expireIdle()
			if len(r.flows) > 0 && slice > r.cfg.IdleExpiry {
				slice = r.cfg.IdleExpiry
			}
		}
		got, err := r.ingest(slice)
		if err != nil && !errors.Is(err, ErrTimeout) {
			return nil, err
		}
		// Drain whatever else is queued without blocking.
		for got > 0 {
			r.processIngested(got)
			if got, err = r.ingest(0); err != nil {
				break
			}
		}
		// Worker 0: run one queued attempt, then drain again before the next.
		r.eng.runOne()
	}
}

// ingest pulls the next batch of raw frames off the transport into
// rxBufs/rxAddrs and returns how many arrived. Transports without batch
// support deliver one frame per call.
func (r *Receiver) ingest(timeout time.Duration) (int, error) {
	switch {
	case r.bptr != nil:
		return r.bptr.ReceiveBatchFrom(r.rxBufs, r.rxAddrs, timeout)
	case r.btr != nil:
		return r.btr.ReceiveBatch(r.rxBufs, timeout)
	default:
		buf := r.rxBufs[0][:cap(r.rxBufs[0])]
		n, from, err := r.receiveFrom(buf, timeout)
		if err != nil {
			return 0, err
		}
		r.rxBufs[0] = buf[:n]
		r.rxAddrs[0] = from
		return 1, nil
	}
}

// processIngested runs the ingested frames through the demux, queueing a
// decode attempt for every message that gained symbols.
func (r *Receiver) processIngested(got int) {
	for i := 0; i < got; i++ {
		var from net.Addr
		if r.bptr != nil || r.btr == nil {
			from = r.rxAddrs[i]
		}
		if st, fresh, err := r.addFrame(r.rxBufs[i], from); err == nil && fresh {
			r.enqueue(st)
		}
	}
}

// receiveFrom reads one frame, with the source address when the transport
// can report one.
func (r *Receiver) receiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error) {
	if r.ptr != nil {
		return r.ptr.ReceiveFrom(buf, timeout)
	}
	n, err := r.tr.Receive(buf, timeout)
	return n, nil, err
}

// HandleFrame processes one raw frame synchronously and, if it completes a
// packet, returns the delivered payload. It is the deterministic
// single-frame path used by tests and replay-style experiments; live
// receivers use Receive, which batches ingest and schedules decoding over
// the workers. HandleFrame must not be called concurrently with Receive.
func (r *Receiver) HandleFrame(raw []byte) (*Delivered, error) {
	st, fresh, err := r.addFrame(raw, nil)
	if err != nil || !fresh {
		return nil, err
	}
	return r.eng.attempt(st)
}

// HandleFrames is HandleFrame over a whole batch: every frame is ingested
// and attempted in order, and all completed packets are returned. It is the
// deterministic counterpart of the batched Receive path — identical frames
// produce identical deliveries regardless of how they were batched. The
// first frame error stops the batch.
func (r *Receiver) HandleFrames(raws [][]byte) ([]Delivered, error) {
	var out []Delivered
	for _, raw := range raws {
		d, err := r.HandleFrame(raw)
		if err != nil {
			return out, err
		}
		if d != nil {
			out = append(out, *d)
		}
	}
	return out, nil
}

// addFrame parses a raw frame in place and appends its symbols to the
// per-message pending buffer. It returns the state the frame contributed to
// and whether that message needs a decode attempt (acks and duplicates of
// already-delivered messages do not). The symbol payload is read straight
// out of raw via the reused view — no per-frame allocation.
func (r *Receiver) addFrame(raw []byte, from net.Addr) (*msgState, bool, error) {
	v := &r.view
	if err := UnmarshalFrameInPlace(raw, v); err != nil {
		return nil, false, err
	}
	if v.Kind != KindData {
		return nil, false, nil // stray ack: ignore
	}
	// A NaN or infinite sample would give every child at its level a
	// non-finite cost that spreads to every path below it on every later
	// attempt, so the message could never decode; finite costs are also
	// what makes the beam's candidate order a strict total order. Drop the
	// frame before it creates or touches any state.
	if !v.symbolsFinite() {
		return nil, false, fmt.Errorf("link: flow %d message %d: non-finite symbol sample", v.FlowID, v.MsgID)
	}
	st, err := r.stateFor(v)
	if err != nil {
		return nil, false, err
	}
	r.seq++
	fs := r.flows[v.FlowID]
	fs.lastSeq = r.seq
	if r.cfg.IdleExpiry > 0 {
		fs.lastFrame = time.Now()
	}
	if r.seq%evictSweepEvery == 0 {
		r.evictDelivered()
	}

	st.mu.Lock()
	st.lastSeq = r.seq
	if from != nil {
		st.addr = from
	}
	if st.done {
		st.mu.Unlock()
		// The ack was probably lost; repeat it.
		return st, false, r.eng.sendAckFor(st, true)
	}
	st.mu.Unlock()

	// Validate and impair the whole frame into the scratch batch first, so
	// the per-message mutex is taken once per frame rather than once per
	// symbol. Positions come from the schedule's batch fill, the impairment
	// runs over the whole frame in one block call when the model supports
	// it, and the pending buffer receives the frame through one append.
	nseg := st.params.NumSegments()
	n := v.NumSymbols
	// Bound the stream indices before the batch position fill: on 32-bit
	// platforms a hostile StartIndex would otherwise wrap negative and panic
	// in the schedule instead of dropping the frame.
	if int64(v.StartIndex)+int64(n) > math.MaxInt32 {
		return nil, false, fmt.Errorf("link: symbol start index %d out of range", v.StartIndex)
	}
	if cap(r.scratchPos) < n {
		r.scratchPos = make([]core.SymbolPos, n)
		r.scratchY = make([]complex128, n)
	}
	poss := r.scratchPos[:n]
	ys := r.scratchY[:n]
	core.PositionsInto(st.sched, int(v.StartIndex), poss)
	for i, pos := range poss {
		if pos.Spine >= nseg {
			return nil, false, fmt.Errorf("link: symbol index %d out of range", int(v.StartIndex)+i)
		}
	}
	v.SymbolsInto(ys)
	if r.impairment != nil {
		if blk, ok := r.impairment.(channel.BlockChannel); ok {
			blk.CorruptBlock(ys, ys)
		} else {
			for i, y := range ys {
				ys[i] = r.impairment.Corrupt(y)
			}
		}
	}
	st.mu.Lock()
	st.pending.extend(poss, ys)
	st.symbols += n
	st.mu.Unlock()
	return st, true, nil
}

// enqueue hands a message with fresh symbols to the workers' fair
// scheduler, unless an attempt token for it is already queued.
func (r *Receiver) enqueue(st *msgState) {
	st.mu.Lock()
	if st.queued || st.done {
		st.mu.Unlock()
		return
	}
	st.queued = true
	st.mu.Unlock()
	r.eng.submit(st)
}

// stateFor finds or creates the decoding state for the message described by
// a data-frame view, validating the advertised parameters and applying
// admission control at every level (flow count, per-flow messages, total
// messages). Validation runs before any admission decision, so a garbage
// frame can never shed a live flow or evict tracked state.
func (r *Receiver) stateFor(v *FrameView) (*msgState, error) {
	fs := r.flows[v.FlowID]
	if fs != nil {
		if st, ok := fs.states[v.MsgID]; ok {
			if st.params.MessageBits != int(v.MessageBits) || st.params.K != int(v.K) || st.params.C != int(v.C) {
				return nil, fmt.Errorf("link: flow %d message %d changed parameters mid-flight", v.FlowID, v.MsgID)
			}
			return st, nil
		}
	}
	if v.MessageBits == 0 || v.MessageBits > (MaxPayload+4)*8 {
		return nil, fmt.Errorf("link: message of %d bits rejected", v.MessageBits)
	}
	if int(v.K) > 12 || v.K == 0 {
		return nil, fmt.Errorf("link: unsupported k=%d", v.K)
	}
	if v.Seed != r.cfg.Seed {
		return nil, fmt.Errorf("link: frame advertises unknown code seed")
	}
	params := core.Params{
		K:           int(v.K),
		C:           int(v.C),
		MessageBits: int(v.MessageBits),
		Seed:        v.Seed,
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cost := int64(params.NumSegments()) << uint(v.K); cost > maxDecodeCost {
		return nil, fmt.Errorf("link: frame advertises decode cost %d (k=%d, %d segments) beyond cap %d",
			cost, v.K, params.NumSegments(), maxDecodeCost)
	}
	sched, err := r.scheds.get(v.Schedule, params.NumSegments())
	if err != nil {
		return nil, err
	}
	if fs == nil {
		if len(r.flows) >= r.cfg.MaxFlows {
			r.shedOldestFlow()
		}
		fs = &flowState{id: v.FlowID, states: map[uint32]*msgState{}}
		r.flows[v.FlowID] = fs
	}
	if len(fs.states) >= r.cfg.MaxTrackedPerFlow {
		r.evictForCap(fs, fs)
	}
	if r.nmsgs >= r.cfg.MaxTracked {
		r.evictForCap(nil, fs)
	}
	lease, err := r.pool.Lease(params, r.cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	// Release resets leased decoders to the exact search, so the
	// configured base strategy is installed on every lease. Under
	// AdaptiveSearch the engine may override it per attempt from budget
	// pressure.
	if err := lease.Dec.SetSearchMode(r.cfg.Search); err != nil {
		lease.Release()
		return nil, err
	}
	// The first attempt waits for the flow's learned threshold, capped at
	// the MaxPasses budget so a history that outgrew the channel can never
	// hold back a message past the last symbol its sender emits.
	code := codeKey{k: params.K, c: params.C, schedule: v.Schedule}
	minUses, nseg := noiselessUses(params), params.NumSegments()
	if first, held := r.eng.firstAttempt(v.FlowID, code, minUses, nseg); held {
		minUses = max(minUses, min(first, r.cfg.MaxPasses*nseg))
		r.thresholded++
	}
	st := &msgState{
		flow:    v.FlowID,
		id:      v.MsgID,
		params:  params,
		sched:   sched,
		code:    code,
		minUses: minUses,
		lease:   lease,
	}
	st.pending, st.draining = r.eng.spareBatch(), r.eng.spareBatch()
	fs.states[v.MsgID] = st
	r.nmsgs++
	return st, nil
}

// dropState removes one message state from the tracking maps and reclaims
// its decoder lease when no attempt is queued or in flight; otherwise the
// attempt returns the lease when it observes the eviction.
func (r *Receiver) dropState(fs *flowState, st *msgState) {
	st.mu.Lock()
	st.evicted = true
	var reclaim *core.LeasedDecoder
	if !st.queued && !st.attempting {
		reclaim = r.eng.handBackLocked(st)
	}
	st.mu.Unlock()
	reclaim.Release()
	delete(fs.states, st.id)
	r.nmsgs--
}

// dropFlow tears a flow down: it NACKs the flow's undelivered messages when
// nack is set (best effort; an unreachable sender just times out), drops
// every message state and forgets the flow.
func (r *Receiver) dropFlow(fs *flowState, nack bool) {
	for _, st := range fs.states {
		if nack {
			st.mu.Lock()
			done := st.done
			st.mu.Unlock()
			if !done {
				_ = r.eng.sendAckFor(st, false)
			}
		}
		r.dropState(fs, st)
	}
	delete(r.flows, fs.id)
	r.eng.forgetFlow(fs.id)
}

// evictDelivered drops delivered states whose sender has been silent for the
// grace period — the ack evidently arrived, so the state is done repeating
// it — and forgets flows that no longer track any message.
func (r *Receiver) evictDelivered() {
	for _, fs := range r.flows {
		for _, st := range fs.states {
			st.mu.Lock()
			stale := st.done && r.seq-st.lastSeq > doneGraceFrames
			st.mu.Unlock()
			if stale {
				r.dropState(fs, st)
			}
		}
		if len(fs.states) == 0 {
			r.dropFlow(fs, false)
		}
	}
}

// evictForCap makes room for one more tracked message: delivered states go
// first (oldest last-activity first), then the stalest in-flight state.
// With a non-nil scope the search is confined to that flow (the per-flow
// cap); with nil it spans every flow (the global cap). The keep flow — the
// one the caller is about to add a message to — is never removed from the
// flow table even if the eviction empties it. Dropping an in-flight state
// costs its decode progress, never correctness — later frames recreate it.
func (r *Receiver) evictForCap(scope, keep *flowState) {
	var victimFlow *flowState
	var victim *msgState
	var victimSeq uint64
	victimDone := false
	scan := func(f *flowState) {
		for _, st := range f.states {
			st.mu.Lock()
			done, last := st.done, st.lastSeq
			st.mu.Unlock()
			better := victim == nil ||
				(done && !victimDone) ||
				(done == victimDone && last < victimSeq)
			if better {
				victimFlow, victim, victimSeq, victimDone = f, st, last, done
			}
		}
	}
	if scope != nil {
		scan(scope)
	} else {
		for _, f := range r.flows {
			scan(f)
		}
	}
	if victim == nil {
		return
	}
	r.dropState(victimFlow, victim)
	if len(victimFlow.states) == 0 && victimFlow != keep {
		r.dropFlow(victimFlow, false)
	}
}

// shedOldestFlow applies flow-level admission control: the flow with the
// oldest activity is dropped wholesale to admit a new one, and each of its
// undelivered messages gets a negative ack so the sender stops
// retransmitting into the void. Shedding never loses data for good — a
// sender that keeps transmitting simply re-admits the flow with fresh state.
func (r *Receiver) shedOldestFlow() {
	var victim *flowState
	for _, fs := range r.flows {
		if victim == nil || fs.lastSeq < victim.lastSeq {
			victim = fs
		}
	}
	if victim == nil {
		return
	}
	r.dropFlow(victim, true)
	r.shed++
}

// expireIdle drops flows whose senders have gone silent for Config.IdleExpiry:
// every undelivered message is NACKed (best effort) and its state dropped, so
// zombie senders stop pinning decoder leases and arena buffers. Like
// admission-control shedding, expiry never loses data for good — a sender
// that resumes transmitting simply re-admits the flow with fresh state.
func (r *Receiver) expireIdle() {
	if r.cfg.IdleExpiry <= 0 || len(r.flows) == 0 {
		return
	}
	now := time.Now()
	for _, fs := range r.flows {
		if now.Sub(fs.lastFrame) <= r.cfg.IdleExpiry {
			continue
		}
		r.dropFlow(fs, true)
		r.expired++
	}
}

// FlowSymbolsReceived reports how many symbols have been accumulated for a
// message of a flow; it is exported for tests and diagnostics.
func (r *Receiver) FlowSymbolsReceived(flowID, msgID uint32) int {
	fs, ok := r.flows[flowID]
	if !ok {
		return 0
	}
	if st, ok := fs.states[msgID]; ok {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.symbols
	}
	return 0
}

// FlowNodesExpanded reports the total decoding-tree nodes expanded across
// all decode attempts for a message of a flow — the receiver's
// computational cost for the packet. Every attempt counts: an attempt that
// fails its CRC check costs about as much as the one that succeeds, because
// every attempt searches from the root, which is why the flow's decode
// threshold holds back attempts that cannot succeed yet.
func (r *Receiver) FlowNodesExpanded(flowID, msgID uint32) int64 {
	fs, ok := r.flows[flowID]
	if !ok {
		return 0
	}
	if st, ok := fs.states[msgID]; ok {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.nodes
	}
	return 0
}

// TrackedMessages reports how many per-message decoding states the receiver
// currently retains across all flows.
func (r *Receiver) TrackedMessages() int { return r.nmsgs }

// TrackedFlows reports how many flows currently have tracked state.
func (r *Receiver) TrackedFlows() int { return len(r.flows) }

// ShedFlows reports how many flows admission control has shed.
func (r *Receiver) ShedFlows() uint64 { return r.shed }

// ExpiredFlows reports how many flows idle expiry has dropped.
func (r *Receiver) ExpiredFlows() uint64 { return r.expired }

// BudgetDeferrals reports how many times the decode scheduler deferred an
// over-budget flow's attempt in favour of a cheaper flow (always zero when
// Config.FlowDecodeBudget is unset).
func (r *Receiver) BudgetDeferrals() uint64 { return r.eng.budgetDeferrals() }

// PoolStats returns the shared decoder pool's counters — how often message
// states reused a pooled decoder instead of building one.
func (r *Receiver) PoolStats() core.PoolStats { return r.pool.Stats() }

// EngineStats is a point-in-time snapshot of the link engine's operational
// counters, assembled for observability endpoints (spinalrecv -stats) and
// chaos-test leak gates. Like the underlying accessors, it must be taken
// from the goroutine driving Receive.
type EngineStats struct {
	// TrackedFlows and TrackedMessages are the current tracking-table sizes.
	TrackedFlows    int `json:"tracked_flows"`
	TrackedMessages int `json:"tracked_messages"`
	// ShedFlows and ExpiredFlows count flows dropped by admission control
	// and by idle expiry respectively.
	ShedFlows    uint64 `json:"shed_flows"`
	ExpiredFlows uint64 `json:"expired_flows"`
	// BudgetDeferrals counts decode-scheduler decisions that skipped an
	// over-budget flow.
	BudgetDeferrals uint64 `json:"budget_deferrals"`
	// DecodeAttempts counts executed decode attempts; DecodeSkips counts
	// batches folded into a message's observations without an attempt
	// because the flow's decode threshold held it back (the message was
	// past the noiseless bound but below the threshold).
	DecodeAttempts uint64 `json:"decode_attempts"`
	DecodeSkips    uint64 `json:"decode_skips"`
	// DecodeThresholded counts new messages whose first attempt used the
	// flow's learned decode threshold rather than the noiseless bound.
	DecodeThresholded uint64 `json:"decode_thresholded"`
	// SearchAttempts counts executed decode attempts by the search mode
	// they ran under (keys are the -search spellings: exact, approx).
	// Modes that never ran are omitted.
	SearchAttempts map[string]uint64 `json:"search_attempts,omitempty"`
	// NodesSaved is the decoders' running estimate of tree expansions
	// avoided by approximate search; zero on an all-exact receiver.
	NodesSaved int64 `json:"nodes_saved"`
	// Pool is the shared decoder pool's traffic counters; Pool.Outstanding
	// above zero after a drain means leaked decoder leases.
	Pool core.PoolStats `json:"pool"`
	// AckArena is the engine's ack-marshal arena counters.
	AckArena ArenaStats `json:"ack_arena"`
}

// EngineStats snapshots the receiver's operational counters.
func (r *Receiver) EngineStats() EngineStats {
	attempts, saved := r.eng.searchStats()
	var total uint64
	for _, n := range attempts {
		total += n
	}
	return EngineStats{
		TrackedFlows:      len(r.flows),
		TrackedMessages:   r.nmsgs,
		ShedFlows:         r.shed,
		ExpiredFlows:      r.expired,
		BudgetDeferrals:   r.eng.budgetDeferrals(),
		DecodeAttempts:    total,
		DecodeSkips:       r.eng.skips.Load(),
		DecodeThresholded: r.thresholded,
		SearchAttempts:    attempts,
		NodesSaved:        saved,
		Pool:              r.pool.Stats(),
		AckArena:          r.eng.acks.Stats(),
	}
}

// flowEngine owns the fair scheduler and the decode helper goroutines.
// Attempt tokens are queued per flow, and the workers (Receive's goroutine
// and the helpers) pick the next token by round-robin over the flows that
// have pending work, so every active flow gets decode attempts at the same
// rate regardless of how many frames each pushes. The engine deliberately
// holds no reference to the Receiver so an abandoned receiver can be
// reclaimed.
type flowEngine struct {
	tr Transport
	pt PacketTransport // tr when addressable, else nil
	// acks leases the marshal buffers for outgoing acks, so the ack path
	// allocates nothing in steady state.
	acks *Arena
	// budget is Config.FlowDecodeBudget: how far (in decode-tree nodes
	// expanded) any flow's spend may lead the least-spent flow that has
	// pending work before the scheduler defers its attempts. Zero disables
	// budget accounting.
	budget int64
	// base is Config.Search, the strategy every attempt runs under when
	// adaptive selection is off (it is installed on each lease by stateFor)
	// and the strategy unpressured flows relax back to when it is on.
	base core.SearchMode
	// adaptive is Config.AdaptiveSearch: pick each flow's search strategy
	// from its budget-deferral pressure instead of using base everywhere.
	adaptive bool

	mu   sync.Mutex
	cond *sync.Cond
	// flowQ holds the per-flow token queues; ring is the round-robin order
	// of flows that currently have tokens.
	flowQ map[uint32]*flowQueue
	ring  []*flowQueue
	// spent is the per-flow decode-spend ledger (nodes expanded over the
	// flow's lifetime); entries are forgotten when the receiver drops the
	// flow. deferrals counts scheduling decisions that skipped an
	// over-budget flow in favour of a cheaper one.
	spent     map[uint32]int64
	deferrals uint64
	// pressure is the adaptive-search signal: one count per scheduling
	// decision that deferred the flow, halved each time one of its attempts
	// actually runs. Pressured flows decode under the approximate mode;
	// flows the scheduler serves promptly decay back to the base strategy.
	// Nil unless adaptive.
	pressure map[uint32]uint64
	// modeAttempts counts executed decode attempts by the search mode they
	// ran under (indexed by core.SearchMode); nodesSaved folds the
	// decoders' estimates of expansions avoided by approximate search.
	modeAttempts [2]uint64
	nodesSaved   int64
	// hist holds the decode histories (the first-attempt thresholds) of at
	// most histCap flows. Entries outlive the flow's tracked state, so a flow
	// that returns after its states aged out still attempts at its learned
	// threshold; a new flow in a full table evicts the least recently used
	// entry. histClock stamps each entry's reads and writes. skips counts
	// attempts the threshold held back.
	hist      map[uint32]*flowHistory
	histCap   int
	histClock uint64
	skips     atomic.Uint64
	// spareMu guards spare, the symbol buffers of finished message states,
	// which new states take up instead of growing their own (see
	// handBackLocked).
	spareMu sync.Mutex
	spare   []rxBatch
	// queued counts the tokens in flowQ; outstanding counts tokens submitted
	// but not yet fully processed (result recorded). While outstanding is
	// zero, Receive can block for its whole timeout instead of polling for
	// helper results.
	queued      int
	outstanding int
	ready       []Delivered
	err         error
	closed      bool
	once        sync.Once
	wg          sync.WaitGroup
}

// flowQueue is the FIFO of attempt tokens of one flow. It lives from the
// flow's first token until the receiver forgets the flow, so a flow that
// alternates between one token and none does not rebuild it; gone marks a
// forgotten flow whose queue still held tokens, deleted once they drain.
type flowQueue struct {
	id     uint32
	msgs   []*msgState
	inRing bool
	gone   bool
}

func newFlowEngine(tr Transport, workers int, budget int64, base core.SearchMode, adaptive bool, histCap int) *flowEngine {
	if workers < 1 {
		workers = 1
	}
	e := &flowEngine{
		tr:       tr,
		flowQ:    map[uint32]*flowQueue{},
		acks:     NewArena(ackMarshalCap, 2*workers+8),
		budget:   budget,
		base:     base,
		adaptive: adaptive,
		spent:    map[uint32]int64{},
		hist:     map[uint32]*flowHistory{},
		histCap:  histCap,
	}
	if adaptive {
		e.pressure = map[uint32]uint64{}
	}
	if pt, ok := tr.(PacketTransport); ok {
		e.pt = pt
	}
	e.cond = sync.NewCond(&e.mu)
	// Receive's goroutine is worker 0; the rest are helpers.
	e.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go e.worker()
	}
	return e
}

// worker is a helper's loop: it runs tokens until the engine closes and the
// queues drain.
func (e *flowEngine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.ring) == 0 && !e.closed {
			e.cond.Wait()
		}
		closed := e.closed
		e.mu.Unlock()
		if !e.runOne() && closed {
			return
		}
	}
}

// runOne pops the next token off the fair scheduler, runs its attempt and
// records the outcome; it reports false, running nothing, when no token is
// queued. It is the one decode path of every worker: Receive's goroutine
// calls it after each transport drain, the helpers in their loop.
func (e *flowEngine) runOne() bool {
	e.mu.Lock()
	if len(e.ring) == 0 {
		e.mu.Unlock()
		return false
	}
	// Budget-aware round-robin: take the first flow in the ring whose
	// decode spend is within FlowDecodeBudget of the least-spent flow that
	// has work, pop one of its tokens, and move it to the back of the ring
	// if it still has work. Skipped flows are deferred, not dropped: their
	// tokens stay queued and run as soon as the cheaper flows catch up. The
	// least-spent flow always qualifies, so a pick always exists and
	// deferral can never livelock.
	fq := e.pickLocked()
	st := popFront(&fq.msgs)
	e.queued--
	if len(fq.msgs) > 0 {
		e.ring = append(e.ring, fq)
	} else {
		fq.inRing = false
		if fq.gone {
			delete(e.flowQ, fq.id)
		}
	}
	e.mu.Unlock()

	d, err := e.attempt(st)
	e.mu.Lock()
	if d != nil {
		e.ready = append(e.ready, *d)
	}
	if err != nil && e.err == nil {
		e.err = err
	}
	// Decrement after recording the result: a zero outstanding count
	// guarantees every finished attempt is visible in ready/err.
	e.outstanding--
	e.mu.Unlock()
	return true
}

// pickLocked removes and returns the next schedulable flow queue from the
// ring. Callers hold e.mu and guarantee the ring is non-empty. Without a
// budget (or with a single flow queued) it is plain round-robin; with one,
// flows whose ledger leads the cheapest queued flow by more than the budget
// are rotated past (counted as deferrals) until an affordable flow is found.
func (e *flowEngine) pickLocked() *flowQueue {
	if e.budget <= 0 || len(e.ring) == 1 {
		fq := e.ring[0]
		e.ring = e.ring[1:]
		e.decayPressureLocked(fq.id)
		return fq
	}
	min := e.spent[e.ring[0].id]
	for _, fq := range e.ring[1:] {
		if s := e.spent[fq.id]; s < min {
			min = s
		}
	}
	for i, fq := range e.ring {
		if e.spent[fq.id]-min <= e.budget {
			e.deferrals += uint64(i)
			if e.adaptive {
				// Each flow rotated past accrues one unit of pressure,
				// nudging its next attempts toward cheaper search modes.
				for j := 0; j < i; j++ {
					e.pressure[e.ring[j].id]++
				}
			}
			e.ring = append(e.ring[:i], e.ring[i+1:]...)
			e.decayPressureLocked(fq.id)
			return fq
		}
	}
	// Unreachable: the minimum-spend flow always satisfies the budget.
	fq := e.ring[0]
	e.ring = e.ring[1:]
	e.decayPressureLocked(fq.id)
	return fq
}

// decayPressureLocked halves a flow's deferral pressure when one of its
// attempts is actually scheduled, so a flow the scheduler serves promptly
// relaxes back to the base search strategy within a few attempts.
func (e *flowEngine) decayPressureLocked(flow uint32) {
	if !e.adaptive {
		return
	}
	if p := e.pressure[flow]; p > 1 {
		e.pressure[flow] = p / 2
	} else if p == 1 {
		delete(e.pressure, flow)
	}
}

// searchFor picks the search strategy for one attempt of a flow. Without
// adaptive selection it is always the base strategy; with it, a flow under
// any budget-deferral pressure decodes with the approximate mode — cheaper
// when the receiver cannot keep up, at no cost in delivered rate — and
// drained pressure falls back to the base.
func (e *flowEngine) searchFor(flow uint32) core.SearchMode {
	if !e.adaptive {
		return e.base
	}
	e.mu.Lock()
	p := e.pressure[flow]
	e.mu.Unlock()
	if p == 0 {
		return e.base
	}
	return core.SearchApprox
}

// noteSearch records one executed attempt's search mode and saved work.
func (e *flowEngine) noteSearch(mode core.SearchMode, saved int64) {
	e.mu.Lock()
	if int(mode) < len(e.modeAttempts) {
		e.modeAttempts[mode]++
	}
	e.nodesSaved += saved
	e.mu.Unlock()
}

// searchStats snapshots the per-mode attempt counters and the saved-node
// estimate for EngineStats.
func (e *flowEngine) searchStats() (map[string]uint64, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[string]uint64, len(e.modeAttempts))
	for mode, n := range e.modeAttempts {
		if n > 0 {
			m[core.SearchMode(mode).String()] = n
		}
	}
	return m, e.nodesSaved
}

// noteSpend charges freshly expanded decode-tree nodes to a flow's ledger.
func (e *flowEngine) noteSpend(flow uint32, nodes int64) {
	if e.budget <= 0 || nodes == 0 {
		return
	}
	e.mu.Lock()
	e.spent[flow] += nodes
	e.mu.Unlock()
}

// forgetFlow drops a flow's spend ledger, search pressure and token queue
// when the receiver stops tracking the flow, so all three stay bounded by the
// live-flow cap. A queue that still holds tokens goes when they drain. The
// flow's decode history is kept: the history table bounds itself.
func (e *flowEngine) forgetFlow(flow uint32) {
	e.mu.Lock()
	delete(e.spent, flow)
	delete(e.pressure, flow)
	if fq := e.flowQ[flow]; fq != nil {
		if fq.inRing {
			fq.gone = true
		} else {
			delete(e.flowQ, flow)
		}
	}
	e.mu.Unlock()
}

// codeKey is the part of a flow's code configuration that its decode
// history is valid for; messages under another key restart the history.
type codeKey struct {
	k, c     int
	schedule uint8
}

// flowHistory is one flow's decode history (core.DecodeHistory), learned
// under one code configuration.
type flowHistory struct {
	core.DecodeHistory
	code codeKey
	used uint64 // histClock at the last read or write; the LRU order
}

// firstAttempt returns the symbol count at which the flow's decode history
// holds the first attempt of a new message under code, from the noiseless
// bound minUses at nseg segments; held is false when the flow has no
// history under code or the history does not hold the message.
func (e *flowEngine) firstAttempt(flow uint32, code codeKey, minUses, nseg int) (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.hist[flow]
	if h == nil {
		return minUses, false
	}
	e.histClock++
	h.used = e.histClock
	if h.code != code {
		return minUses, false
	}
	return h.FirstAttempt(minUses, nseg)
}

// noteDecoded records that a message of flow under code decoded at count
// symbols of nseg segments; held reports whether the threshold delayed its
// first attempt. A decode under another code restarts the flow's history.
func (e *flowEngine) noteDecoded(flow uint32, code codeKey, count, nseg int, held bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.hist[flow]
	if h == nil {
		if len(e.hist) >= e.histCap {
			e.evictHistoryLocked()
		}
		h = &flowHistory{code: code}
		e.hist[flow] = h
	}
	if h.code != code {
		*h = flowHistory{code: code}
	}
	e.histClock++
	h.used = e.histClock
	h.Decoded(count, nseg, held)
}

// evictHistoryLocked drops the least recently used decode history. Stamps
// are unique, so the victim never depends on map iteration order and a run
// replays exactly from its seed. Callers hold e.mu.
func (e *flowEngine) evictHistoryLocked() {
	var victim uint32
	oldest := uint64(math.MaxUint64)
	for flow, h := range e.hist {
		if h.used < oldest {
			victim, oldest = flow, h.used
		}
	}
	delete(e.hist, victim)
}

// noiselessUses is the noiseless bound ⌈n/2c⌉: the fewest symbols that could
// carry the message at all, at 2c bits per symbol.
func noiselessUses(p core.Params) int {
	return (p.MessageBits + 2*p.C - 1) / (2 * p.C)
}

// budgetDeferrals reports how many scheduling decisions skipped an
// over-budget flow.
func (e *flowEngine) budgetDeferrals() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deferrals
}

// submit queues one attempt token on its flow's queue.
func (e *flowEngine) submit(st *msgState) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	fq := e.flowQ[st.flow]
	if fq == nil {
		fq = &flowQueue{id: st.flow}
		e.flowQ[st.flow] = fq
	}
	fq.gone = false
	fq.msgs = append(fq.msgs, st)
	if !fq.inRing {
		fq.inRing = true
		e.ring = append(e.ring, fq)
	}
	e.queued++
	e.outstanding++
	// Receive's goroutine runs one token after each drain; wake a helper
	// only for the tokens beyond it.
	if e.queued > 1 {
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// load reports how many tokens are queued and how many submitted attempts
// have not finished yet. When outstanding is zero, every completed
// attempt's outcome is already visible to take (runOne decrements it only
// after recording the result).
func (e *flowEngine) load() (queued, outstanding int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued, e.outstanding
}

// take pops one delivered packet, or — only once the delivery queue is
// drained — the first asynchronous worker error. Packets decoded (and acked)
// before the error must still reach the application.
func (e *flowEngine) take() (*Delivered, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ready) == 0 {
		if e.err != nil {
			return nil, e.err
		}
		return nil, nil
	}
	d := popFront(&e.ready)
	return &d, nil
}

// popFront removes and returns the first element of a non-empty queue.
// Removing the last element keeps the slot it held, so a queue that keeps
// emptying appends into the same backing array instead of sliding off its
// end and regrowing.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	var zero T
	s[0] = zero // drop the reference for the collector
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return v
}

// Recycled symbol buffers. A message state's pending and draining batches
// go back to the engine where its decoder lease does, under the same
// attempting/evicted handshake, and new states take them up. The msgState
// itself is not recycled: a queued attempt token may still point at it.
const (
	// maxSpareBatches bounds how many batches the engine keeps.
	maxSpareBatches = 64
	// maxSpareSymbols is the largest batch capacity worth keeping; a
	// bigger one (a decode backlog's) is left to the collector.
	maxSpareSymbols = 1024
)

// handBackLocked detaches a state's decoder lease and returns it, for the
// caller to release after unlocking, and recycles its symbol buffers. The
// caller holds st.mu and has established that no attempt is using them. A
// state whose buffers went back still takes frames into fresh ones (ingest
// may append between its done check and its append), never into recycled
// ones.
func (e *flowEngine) handBackLocked(st *msgState) *core.LeasedDecoder {
	lease := st.lease
	st.lease = nil
	e.spareMu.Lock()
	for _, b := range [2]*rxBatch{&st.pending, &st.draining} {
		if c := cap(b.pos); c > 0 && c <= maxSpareSymbols && len(e.spare) < maxSpareBatches {
			b.reset()
			e.spare = append(e.spare, *b)
		}
		*b = rxBatch{}
	}
	e.spareMu.Unlock()
	return lease
}

// spareBatch returns a recycled symbol batch, or an empty one.
func (e *flowEngine) spareBatch() rxBatch {
	e.spareMu.Lock()
	defer e.spareMu.Unlock()
	if len(e.spare) == 0 {
		return rxBatch{}
	}
	b := e.spare[len(e.spare)-1]
	e.spare[len(e.spare)-1] = rxBatch{}
	e.spare = e.spare[:len(e.spare)-1]
	return b
}

// attempt runs one decode attempt for a message: drain its pending symbols
// into the observations, run the beam search, and on a CRC match mark it
// delivered, release its decoder lease back to the pool, and send the ack.
func (e *flowEngine) attempt(st *msgState) (*Delivered, error) {
	st.decodeMu.Lock()
	defer st.decodeMu.Unlock()

	st.mu.Lock()
	st.queued = false
	if st.done || st.evicted {
		// Orphaned token: the state was delivered or dropped after this
		// token was queued. Reclaim the lease if eviction left it behind.
		reclaim := e.handBackLocked(st)
		st.mu.Unlock()
		reclaim.Release()
		return nil, nil
	}
	st.attempting = true
	st.draining.reset()
	st.pending, st.draining = st.draining, st.pending
	pending := st.draining
	lease := st.lease
	st.mu.Unlock()

	var out *core.DecodeResult
	usedMode := core.SearchExact
	var count int
	err := func() error {
		// The whole drained batch lands in the observations through one
		// AddBatch.
		if err := lease.Obs.AddBatch(pending.pos, pending.y); err != nil {
			return err
		}
		// Attempt a decode once enough symbols could possibly carry the
		// message and the flow's history says the attempt can succeed.
		count = lease.Obs.Count()
		if count < st.minUses {
			if count >= noiselessUses(st.params) {
				e.skips.Add(1)
			}
			return nil
		}
		if e.adaptive {
			// Load-adaptive mode selection: re-pick from this flow's budget
			// pressure on every attempt.
			if err := lease.Dec.SetSearchMode(e.searchFor(st.flow)); err != nil {
				return err
			}
		}
		usedMode = lease.Dec.SearchMode()
		var derr error
		out, derr = lease.Dec.Decode(lease.Obs)
		return derr
	}()

	st.mu.Lock()
	st.attempting = false
	if out != nil {
		st.nodes += int64(out.NodesExpanded)
	}
	evicted := st.evicted
	var reclaim *core.LeasedDecoder
	if evicted {
		// Ownership moved to a recreated state while we were decoding; it
		// will deliver (and ack) instead, so stay silent to keep delivery
		// single-copy — but the lease is ours to return.
		reclaim = e.handBackLocked(st)
	}
	st.mu.Unlock()
	if out != nil {
		e.noteSpend(st.flow, int64(out.NodesExpanded))
		e.noteSearch(usedMode, int64(out.NodesSaved))
	}
	reclaim.Release()
	if err != nil || evicted || out == nil {
		return nil, err
	}

	payload, okCRC := crc.Verify32(out.Message)
	if !okCRC {
		return nil, nil // keep listening for more symbols
	}
	st.mu.Lock()
	if st.evicted {
		// Eviction raced the CRC check (attempting was already false, so
		// dropState may have reclaimed the lease itself): ownership moved to
		// a recreated state, which will deliver and ack instead — stay
		// silent to keep delivery single-copy.
		reclaim = e.handBackLocked(st)
		st.mu.Unlock()
		reclaim.Release()
		return nil, nil
	}
	st.done = true
	st.payload = payload // out.Message is this attempt's own
	symbols := st.symbols
	reclaim = e.handBackLocked(st)
	// Recorded under st.mu with evicted clear, so a message whose state was
	// dropped never records; the history table holds at most MaxFlows flows.
	e.noteDecoded(st.flow, st.code, count, st.params.NumSegments(), st.minUses > noiselessUses(st.params))
	st.mu.Unlock()
	// Delivered: the decoder's job is done, return it to the pool for the
	// next message (the ack-repeat path never decodes).
	reclaim.Release()
	if err := e.sendAckFor(st, true); err != nil {
		return nil, err
	}
	return &Delivered{FlowID: st.flow, MsgID: st.id, Payload: st.payload, Symbols: symbols}, nil
}

// sendAckFor transmits an acknowledgement for a message — positive on
// decode, negative when admission control sheds the flow. The ack is
// directed at the flow's source address when the transport can address
// peers. It may be called from any worker and from the ingest path;
// transports are safe for concurrent Send.
func (e *flowEngine) sendAckFor(st *msgState, decoded bool) error {
	st.mu.Lock()
	addr := st.addr
	st.mu.Unlock()
	ack := AckFrame{FlowID: st.flow, MsgID: st.id, Decoded: decoded}
	lb := e.acks.Lease()
	frame := ack.AppendTo(lb.Data[:0])
	var err error
	if e.pt != nil && addr != nil {
		err = e.pt.SendTo(frame, addr)
	} else {
		err = e.tr.Send(frame)
	}
	lb.Release()
	if err != nil {
		return fmt.Errorf("link: sending ack: %w", err)
	}
	return nil
}

// ackMarshalCap sizes the engine's ack-marshal arena buffers; an ack is
// ackLen (11) bytes.
const ackMarshalCap = 32

// stop shuts the helpers down, letting them drain queued attempts first.
// Without helpers the tokens wait for Receive's goroutine, so the caller
// runs them instead: every orphaned token must return its state's lease.
func (e *flowEngine) stop() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.cond.Broadcast()
		e.mu.Unlock()
		e.wg.Wait()
		for e.runOne() {
		}
		// Every ack lease is released before its send returns, so a clean
		// engine shutdown cannot leak; Close just drops the free list.
		_ = e.acks.Close()
	})
}
