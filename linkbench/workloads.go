package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/link"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// codeSeed is the spinal hash-family seed every workload shares; the run
// seed drives payloads, arrivals and noise, not the code itself.
const codeSeed = 0x5eed5eed

// params records a workload's fixed parameters; the run prints them so a
// result says what was measured.
type params struct {
	Loop            string    `json:"loop"`
	Senders         int       `json:"senders"`
	Flows           int       `json:"flows"`
	PayloadBytes    []int     `json:"payload_bytes"`
	SizeWeights     []float64 `json:"size_weights,omitempty"`
	Impairment      string    `json:"impairment"`
	SNRdB           []float64 `json:"snr_db"`
	K               int       `json:"k"`
	Beam            int       `json:"beam"`
	SymbolsPerFrame int       `json:"symbols_per_frame"`
	FlushFrames     int       `json:"flush_frames"`
	Schedule        string    `json:"schedule"`
	Search          string    `json:"search"`
	CadenceMs       float64   `json:"cadence_ms"`
	RateMsgsPerS    float64   `json:"rate_msgs_per_s,omitempty"`
	FramePasses     int       `json:"frame_budget_passes,omitempty"`
	LatencyLimitMs  float64   `json:"latency_limit_ms,omitempty"`
	FlowBudgetNodes int64     `json:"flow_decode_budget_nodes,omitempty"`
}

// workload is one named traffic mix. why is its one-line purpose, the same
// text BENCHMARK.json carries (the package test keeps the two equal).
type workload struct {
	name      string
	why       string
	transport string
	params    params
	setups    int // set-ups per run; setup_s is their median
	build     func(seed uint64, measure time.Duration, t *tracer) (*instance, error)
}

var workloads = []*workload{awgnLink, fadingFlows, tinyUDP}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// warmup is the load discarded before each measured window, so pools and
// caches are filled when timing starts.
const warmup = time.Second

// plan is one measured phase: load starts at epoch, the first warmup of it
// is discarded and the next measure is the window every metric covers.
type plan struct {
	epoch   time.Time
	measure time.Duration
}

func (p plan) start() time.Time { return p.epoch.Add(warmup) }
func (p plan) end() time.Time   { return p.start().Add(p.measure) }

// instance is one set-up link: a receiver with its receive loop, a load
// driver, and everything that must be closed afterwards.
type instance struct {
	recv    *link.Receiver
	rx      *rxLoop
	drive   func(p plan, t *tracer) (*loadStats, error)
	closers []func() error
	replay  replayConfig
	snrFor  func(flow uint32) float64 // channel the replay pass decodes through
}

// close shuts the link down and enforces the leak gates: after Close no
// decoder lease and no ack buffer may be outstanding.
func (in *instance) close() error {
	err := in.recv.Close()
	pool := in.recv.PoolStats()
	eng := in.recv.EngineStats()
	for _, c := range in.closers {
		if cerr := c(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if pool.Outstanding != 0 {
		return violation{fmt.Sprintf("%d decoder leases outstanding after Close", pool.Outstanding)}
	}
	if eng.AckArena.Outstanding != 0 {
		return violation{fmt.Sprintf("%d ack buffers outstanding after Close", eng.AckArena.Outstanding)}
	}
	return nil
}

// violation is a correctness failure: the run reports it instead of numbers.
type violation struct{ what string }

func (v violation) Error() string { return "correctness: " + v.what }

// messageSeed derives the seed of one message's payload from the run seed.
func messageSeed(seed uint64, flow, msg uint32) uint64 {
	return seed ^ 0x9e3779b97f4a7c15*(uint64(flow)<<32|uint64(msg))
}

// payloadFor generates the payload of message msg of flow: the load driver
// sends it and the receive loop regenerates it to check each delivery.
func payloadFor(seed uint64, flow, msg uint32, size int) []byte {
	p := make([]byte, size)
	rng.New(messageSeed(seed, flow, msg)).Bytes(p)
	return p
}

// newReceiver builds the receiver side shared by every workload, wrapping
// the transport and impairment when the run is traced. An empty spec means
// no receiver impairment: the channel is baked into the frames.
func newReceiver(tr link.Transport, cfg link.Config, spec string, seed uint64, t *tracer) (*link.Receiver, error) {
	cfg.DecodeWorkers = decodeWorkers()
	var ch channel.SymbolChannel
	if spec != "" {
		sp, err := impair.Parse(spec)
		if err != nil {
			return nil, err
		}
		pl, err := sp.Build(seed ^ 0x6a09e667f3bcc908)
		if err != nil {
			return nil, err
		}
		ch = pl
	}
	if t != nil {
		tr = wrapTransport(tr, t, true)
		if ch != nil {
			ch = wrapChannel(ch, t)
		}
	}
	return link.NewReceiver(tr, cfg, ch)
}

// ---- closed loops ----------------------------------------------------------

// closedLoop drives one goroutine per sender: each sends its next message as
// soon as the previous Send returns.
type closedLoop struct {
	senders []*link.Sender
	flows   []uint32
	size    int
	seed    uint64
}

func (c *closedLoop) drive(p plan, t *tracer) (*loadStats, error) {
	stats := make([]*loadStats, len(c.senders))
	errs := make([]error, len(c.senders))
	var wg sync.WaitGroup
	for i := range c.senders {
		stats[i] = newLoadStats(p.measure)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.sendLoop(i, p, t, stats[i])
		}(i)
	}
	wg.Wait()
	for _, s := range stats[1:] {
		stats[0].merge(s)
	}
	return stats[0], errors.Join(errs...)
}

// sendLoop sends until the window closes; a message counts in the
// sub-window in which its Send returned.
func (c *closedLoop) sendLoop(i int, p plan, t *tracer, stats *loadStats) error {
	l := t.lockLane("sender")
	defer t.unlockLane(l)
	s, flow := c.senders[i], c.flows[i]
	end := p.end()
	for msg := uint32(1); time.Now().Before(end); msg++ {
		payload := payloadFor(c.seed, flow, msg, c.size)
		l.setMsg(flow, msg)
		tok := t.begin(spanSend)
		t0 := time.Now()
		rep, err := s.Send(msg, payload)
		t1 := time.Now()
		t.end(tok, 0, flow, msg)
		if err != nil {
			return fmt.Errorf("flow %d msg %d: %w", flow, msg, err)
		}
		stats.add(msgRecord{
			flow: flow, msg: msg, at: t1.Sub(p.epoch), latency: t1.Sub(t0), bytes: int32(c.size),
			symbols: int32(rep.SymbolsSent), stale: int32(rep.AckFramesIgnored), ok: rep.Acked,
		})
	}
	return nil
}

// awgn-link: the paper's single rateless link at mid SNR.
var awgnLink = &workload{
	name:      "awgn-link",
	why:       "closed loop, 1 sender, in-memory pipe, 32 B, awgn 10 dB, K=8 B=16, 48 sym/frame, 4 ms cadence: decode-bound single link",
	transport: "in-memory pipe",
	params: params{
		Loop: "closed", Senders: 1, Flows: 1, PayloadBytes: []int{32},
		Impairment: "awgn(snr=10)", SNRdB: []float64{10}, K: 8, Beam: 16,
		SymbolsPerFrame: 48, FlushFrames: 1, Schedule: "sequential", Search: "exact",
		CadenceMs: 4,
	},
	setups: 15,
}

// tiny-udp: the smallest packets over real sockets. B=1 keeps decode below
// the per-packet layers' share of the CPU (at B=4 it took 43% against their
// 25%), and nproc-1 senders do not oversubscribe the cores the receive loop
// and the decode worker need (with nproc senders msgs_per_s spread 25%
// between runs).
var tinyUDP = &workload{
	name:      "tiny-udp",
	why:       "closed loop, nproc-1 senders, loopback UDP, 16 B, awgn 25 dB, K=4 B=1, 48 sym/frame, flush 4, 2 ms cadence: per-packet cost",
	transport: "loopback UDP (not a real link)",
	params: params{
		Loop: "closed", Senders: -1, Flows: -1, PayloadBytes: []int{16},
		Impairment: "awgn(snr=25)", SNRdB: []float64{25}, K: 4, Beam: 1,
		SymbolsPerFrame: 48, FlushFrames: 4, Schedule: "sequential", Search: "exact",
		CadenceMs: 2,
	},
	setups: 15,
}

func init() {
	awgnLink.build = func(seed uint64, _ time.Duration, t *tracer) (*instance, error) {
		return buildClosed(awgnLink.params, seed, t, false)
	}
	tinyUDP.build = func(seed uint64, _ time.Duration, t *tracer) (*instance, error) {
		return buildClosed(tinyUDP.params, seed, t, true)
	}
	fadingFlows.build = buildFading
	n := max(runtime.NumCPU()-1, 1)
	tinyUDP.params.Senders, tinyUDP.params.Flows = n, n
}

// buildClosed sets up a closed-loop workload: senders over the in-memory
// pipe (one sender) or one loopback UDP socket each, into one receiver.
func buildClosed(pr params, seed uint64, t *tracer, udp bool) (*instance, error) {
	cadence := time.Duration(pr.CadenceMs * float64(time.Millisecond))
	cfg := link.Config{
		K: pr.K, BeamWidth: pr.Beam, Seed: codeSeed, SymbolsPerFrame: pr.SymbolsPerFrame,
		FlushFrames: pr.FlushFrames, AckPoll: cadence, AckPollMax: cadence,
	}
	in := &instance{replay: replayConfig{k: pr.K, beam: pr.Beam, spf: pr.SymbolsPerFrame,
		schedule: link.ScheduleSequential}}
	in.snrFor = func(uint32) float64 { return pr.SNRdB[0] }
	fail := func(err error) (*instance, error) {
		for _, c := range in.closers {
			c()
		}
		return nil, err
	}
	var rxEnd link.Transport
	var txEnds []link.Transport
	if udp {
		u, err := link.NewUDP("127.0.0.1:0", "")
		if err != nil {
			return nil, err
		}
		in.closers = append(in.closers, u.Close)
		rxEnd = u
		for i := 0; i < pr.Senders; i++ {
			s, err := link.NewUDP("127.0.0.1:0", u.LocalAddr().String())
			if err != nil {
				return fail(err)
			}
			in.closers = append(in.closers, s.Close)
			txEnds = append(txEnds, s)
		}
	} else {
		a, b, err := link.NewPipePair(0, seed)
		if err != nil {
			return nil, err
		}
		in.closers = append(in.closers, a.Close)
		rxEnd, txEnds = b, []link.Transport{a}
	}
	recv, err := newReceiver(rxEnd, cfg, pr.Impairment, seed, t)
	if err != nil {
		return fail(err)
	}
	in.recv = recv
	cl := &closedLoop{size: pr.PayloadBytes[0], seed: seed}
	for i, tr := range txEnds {
		scfg := cfg
		scfg.FlowID = uint32(i + 1)
		if t != nil {
			tr = wrapTransport(tr, t, false)
		}
		s, err := link.NewSender(tr, scfg)
		if err != nil {
			recv.Close()
			return fail(err)
		}
		cl.senders = append(cl.senders, s)
		cl.flows = append(cl.flows, scfg.FlowID)
	}
	// Set-up ends with one message (id 0) delivered over the fresh link, so
	// it includes the lazy part: the pool's first decoder and first decode.
	if err := firstDelivery(recv, cl.senders[0], payloadFor(seed, cl.flows[0], 0, cl.size)); err != nil {
		recv.Close()
		return fail(fmt.Errorf("first message: %w", err))
	}
	in.drive = cl.drive
	in.rx = newRxLoop(recv, func(flow, msg uint32) []byte {
		return payloadFor(seed, flow, msg, cl.size)
	})
	return in, nil
}

// firstDelivery sends one message and drives the receiver until it is
// delivered, checking the payload.
func firstDelivery(recv *link.Receiver, s *link.Sender, payload []byte) error {
	got := make(chan error, 1)
	go func() {
		d, err := recv.Receive(time.Second)
		if err == nil && !bytes.Equal(d.Payload, payload) {
			err = violation{"the first message delivered a payload that was not sent"}
		}
		got <- err
	}()
	rep, err := s.Send(0, payload)
	if err == nil && !rep.Acked {
		err = fmt.Errorf("not acknowledged")
	}
	return errors.Join(err, <-got)
}

// ---- open loop ---------------------------------------------------------------

// fading-flows: many contending flows on faded channels, offered open loop.
// At the mean rate the one decode worker is about a third busy, and MMPP
// bursts run at 1.5x the mean. An open loop cannot slow down when the host
// steals CPU, so its queueing delay grows with the steal: at 180 msg/s and
// B=16 (worker ~90% busy) and still at 120 msg/s and B=8 (~45%), tail
// latency, allocations and peak RSS spread 30-50% between runs. Odd flows
// fade with a bounded random walk, not Doppler: Doppler's deep fades sent
// 5-10% of the messages of flows under 14 dB to the latency limit, and a
// workload here must not fail operations.
var fadingFlows = &workload{
	name:      "fading-flows",
	why:       "open loop, 16 flows, in-memory pipe, MMPP 80 msg/s, 16/48/96 B, walk/GE fading 6-20 dB, K=4 B=8, 20k-node budget, adaptive search, 2 ms cadence, 1 s limit",
	transport: "in-memory pipe",
	params: params{
		Loop: "open", Senders: 1, Flows: 16, PayloadBytes: []int{16, 48, 96}, SizeWeights: []float64{3, 1, 0.5},
		Impairment: "per flow: walk(min=snr-5,max=snr+5,step=0.2) on odd flows, ge(good=snr+2,bad=snr-6) on even flows, baked into the frames at set-up",
		K:          4, Beam: 8, SymbolsPerFrame: 24, FlushFrames: 1, Schedule: "striped8", Search: "adaptive",
		CadenceMs: 2, RateMsgsPerS: 80, FramePasses: 16, LatencyLimitMs: 1000, FlowBudgetNodes: 20000,
	},
	setups: 3,
}

// fadingSNR spreads the flows' mean SNRs evenly over 6-20 dB; the spread is
// fixed so that only the noise, not the mix, changes with the seed.
func fadingSNR(flow uint32) float64 {
	n := float64(fadingFlows.params.Flows - 1)
	return 6 + 14*float64(flow-1)/n
}

func fadingSpec(flow uint32) string {
	snr := fadingSNR(flow)
	if flow%2 == 1 {
		return fmt.Sprintf("walk(min=%g,max=%g,step=0.2)", snr-5, snr+5)
	}
	return fmt.Sprintf("ge(good=%g,bad=%g)", snr+2, snr-6)
}

// openMsg is one pre-encoded message of the open-loop trace.
type openMsg struct {
	due       time.Duration
	flow, msg uint32
	payload   []byte
	frames    [][]byte
	symbols   int // symbols across all frames
}

type openLoop struct {
	tr      link.Transport
	msgs    []openMsg
	spf     int
	cadence time.Duration
	limit   time.Duration
}

// fadingTrace generates the arrival trace for a run of warmup+measure: the
// MMPP trace is rescaled so its last arrival falls at the window's end,
// which fixes the mean offered rate exactly.
func fadingTrace(seed uint64, measure time.Duration) ([]sim.Event, []time.Duration, error) {
	pr := fadingFlows.params
	total := warmup + measure
	n := int(math.Round(pr.RateMsgsPerS * total.Seconds()))
	sizes := make([]sim.SizeClass, len(pr.PayloadBytes))
	for i, b := range pr.PayloadBytes {
		sizes[i] = sim.SizeClass{Bytes: b, Weight: pr.SizeWeights[i]}
	}
	evs, err := sim.GenerateWorkload(sim.WorkloadConfig{
		Seed: seed, Flows: pr.Flows, Messages: n, Arrival: "mmpp",
		Rate: 1, Burst: 3, Dwell: 5, Sizes: sizes, MeanOn: 200, MeanOff: 50,
	})
	if err != nil {
		return nil, nil, err
	}
	scale := float64(total) / evs[len(evs)-1].At
	due := make([]time.Duration, len(evs))
	for i, e := range evs {
		due[i] = time.Duration(e.At * scale)
	}
	return evs, due, nil
}

func fadingConfig() link.Config {
	pr := fadingFlows.params
	return link.Config{K: pr.K, BeamWidth: pr.Beam, Seed: codeSeed, Schedule: link.ScheduleStriped8,
		FlowDecodeBudget: pr.FlowBudgetNodes, AdaptiveSearch: true}
}

// fadingInputs generates the trace for a window of measure and pre-encodes
// every message's frames through its flow's impairment pipeline. Arrival
// times, flows, sizes, payloads and channel seeds all derive from seed.
func fadingInputs(seed uint64, measure time.Duration) ([]openMsg, error) {
	pr := fadingFlows.params
	evs, due, err := fadingTrace(seed, measure)
	if err != nil {
		return nil, err
	}
	cfg := fadingConfig()
	// One impairment pipeline per flow, seeded from the run seed, consumed
	// in trace order: a flow's channel evolves across its messages.
	chans := map[uint32]*impair.Pipeline{}
	msgs := make([]openMsg, len(evs))
	for i, ev := range evs {
		ch := chans[ev.Flow]
		if ch == nil {
			spec, err := impair.Parse(fadingSpec(ev.Flow))
			if err != nil {
				return nil, err
			}
			if ch, err = spec.Build(ev.Seed(seed, int(ev.Flow))); err != nil {
				return nil, err
			}
			chans[ev.Flow] = ch
		}
		payload := payloadFor(seed, ev.Flow, ev.Msg, ev.Size)
		frames, err := link.EncodeFrames(cfg, ev.Flow, ev.Msg, payload, pr.SymbolsPerFrame, pr.FramePasses, ch.Corrupt)
		if err != nil {
			return nil, err
		}
		nseg := ((ev.Size+4)*8 + pr.K - 1) / pr.K
		msgs[i] = openMsg{due: due[i], flow: ev.Flow, msg: ev.Msg, payload: payload, frames: frames,
			symbols: nseg * pr.FramePasses}
	}
	return msgs, nil
}

// buildFading sets up the open loop: pre-encoded inputs, one pipe, one
// receiver with the decode budget and adaptive search on.
func buildFading(seed uint64, measure time.Duration, t *tracer) (*instance, error) {
	pr := fadingFlows.params
	msgs, err := fadingInputs(seed, measure)
	if err != nil {
		return nil, err
	}
	a, b, err := link.NewPipePair(0, seed)
	if err != nil {
		return nil, err
	}
	in := &instance{closers: []func() error{a.Close},
		replay: replayConfig{k: pr.K, beam: pr.Beam, spf: pr.SymbolsPerFrame, schedule: link.ScheduleStriped8},
		snrFor: fadingSNR}
	recv, err := newReceiver(b, fadingConfig(), "", seed, t)
	if err != nil {
		a.Close()
		return nil, err
	}
	in.recv = recv
	var gen link.Transport = a
	if t != nil {
		gen = wrapTransport(a, t, false)
	}
	ol := &openLoop{tr: gen, msgs: msgs, spf: pr.SymbolsPerFrame,
		cadence: time.Duration(pr.CadenceMs * float64(time.Millisecond)),
		limit:   time.Duration(pr.LatencyLimitMs * float64(time.Millisecond))}
	in.drive = ol.drive
	byKey := make(map[uint64][]byte, len(msgs))
	for _, m := range msgs {
		byKey[key(m.flow, m.msg)] = m.payload
	}
	in.rx = newRxLoop(recv, func(flow, msg uint32) []byte { return byKey[key(flow, msg)] })
	return in, nil
}

func key(flow, msg uint32) uint64 { return uint64(flow)<<32 | uint64(msg) }

// drive replays the trace from one generator goroutine: each due message
// gets one frame per cadence tick until its ack arrives, its frames run out
// and the latency limit passes, or the limit passes first (a failure).
// Latency runs from the due time, so a late generator counts against it.
func (o *openLoop) drive(p plan, t *tracer) (*loadStats, error) {
	l := t.lockLane("generator")
	defer t.unlockLane(l)
	type live struct {
		i    int
		next time.Duration
		sent int
	}
	recs := make([]msgRecord, len(o.msgs))
	done := make([]bool, len(o.msgs))
	pending := make(map[uint64]int, 64)
	var active []*live
	buf := make([]byte, link.MaxFrameSize)
	var view link.FrameView
	next, resolved := 0, 0
	resolve := func(i int, ok bool, at time.Duration) {
		m := &o.msgs[i]
		recs[i].ok = ok
		recs[i].latency = at - m.due
		if !ok {
			recs[i].latency = o.limit
		}
		done[i] = true
		delete(pending, key(m.flow, m.msg))
		resolved++
	}
	for resolved < len(o.msgs) {
		now := time.Since(p.epoch)
		for next < len(o.msgs) && o.msgs[next].due <= now {
			m := &o.msgs[next]
			recs[next] = msgRecord{flow: m.flow, msg: m.msg, at: m.due, bytes: int32(len(m.payload))}
			pending[key(m.flow, m.msg)] = next
			active = append(active, &live{i: next, next: m.due})
			next++
		}
		wake := time.Duration(math.MaxInt64)
		if next < len(o.msgs) {
			wake = o.msgs[next].due
		}
		keep := active[:0]
		for _, a := range active {
			if done[a.i] {
				continue
			}
			m := &o.msgs[a.i]
			if now-m.due >= o.limit {
				resolve(a.i, false, now)
				continue
			}
			if a.sent < len(m.frames) && a.next <= now {
				if a.sent == 0 {
					recs[a.i].late = now - m.due
				}
				l.setMsg(m.flow, m.msg)
				if err := o.tr.Send(m.frames[a.sent]); err != nil {
					return nil, fmt.Errorf("generator send: %w", err)
				}
				a.sent++
				recs[a.i].symbols = int32(min(a.sent*o.spf, m.symbols))
				if a.next += o.cadence; a.next < now {
					a.next = now + o.cadence
				}
			}
			if a.sent < len(m.frames) && a.next < wake {
				wake = a.next
			}
			if lim := m.due + o.limit; lim < wake {
				wake = lim
			}
			keep = append(keep, a)
		}
		active = keep
		if resolved == len(o.msgs) {
			break
		}
		wait := max(wake-time.Since(p.epoch), 0)
		n, err := o.tr.Receive(buf, wait)
		for ; err == nil; n, err = o.tr.Receive(buf, 0) {
			if link.UnmarshalFrameInPlace(buf[:n], &view) != nil || view.Kind != link.KindAck {
				continue
			}
			i, ok := pending[key(view.FlowID, view.MsgID)]
			if !ok {
				continue // a repeated ack for a resolved message
			}
			resolve(i, view.Decoded, time.Since(p.epoch))
		}
		if !errors.Is(err, link.ErrTimeout) {
			return nil, fmt.Errorf("generator ack wait: %w", err)
		}
	}
	stats := newLoadStats(p.measure)
	for _, r := range recs {
		stats.add(r)
	}
	return stats, nil
}
