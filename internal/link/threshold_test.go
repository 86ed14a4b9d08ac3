package link

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"spinal/internal/impair"
	"spinal/internal/rng"
)

// The shape of core.DecodeHistory's rule that these tests step through: a
// ring of historyLen records, a threshold once historyMin are held, and a
// probe every probeEvery-th message.
const (
	historyLen = 16
	historyMin = 4
	probeEvery = 64
)

// closedLoopFlow drives the messages of one flow through
// Receiver.HandleFrames the way a closed-loop sender does: a message's
// frames go in one at a time until it decodes, then the next message
// starts. Noise is added at the sender from a caller-chosen pipeline, so a
// test can change a flow's SNR between messages.
type closedLoopFlow struct {
	r    *Receiver
	cfg  Config
	flow uint32
	src  *rng.Rand // payload bytes
	next uint32    // last message id used
	// nodes sums FlowNodesExpanded over delivered messages; lost counts
	// messages whose frames ran out before they decoded.
	nodes int64
	lost  int
}

func newClosedLoopFlow(t *testing.T, cfg Config, flow uint32) *closedLoopFlow {
	t.Helper()
	r, _ := newTestReceiver(t, cfg)
	return &closedLoopFlow{r: r, cfg: cfg.withDefaults(), flow: flow, src: rng.New(uint64(flow))}
}

// send transmits one fresh payload of size bytes through ch and returns the
// symbols the receiver held when it decoded (0 if it never did). Delivery
// must be bit-identical.
func (f *closedLoopFlow) send(t *testing.T, ch *impair.Pipeline, size int) int {
	t.Helper()
	f.next++
	payload := make([]byte, size)
	f.src.Bytes(payload)
	frames, err := EncodeFrames(f.cfg, f.flow, f.next, payload, f.cfg.SymbolsPerFrame, f.cfg.MaxPasses, ch.Corrupt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		ds, err := f.r.HandleFrames(frames[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) == 0 {
			continue
		}
		if len(ds) != 1 || ds[0].FlowID != f.flow || ds[0].MsgID != f.next || !bytes.Equal(ds[0].Payload, payload) {
			t.Fatalf("message %d: delivered %+v, want exactly its own payload", f.next, ds)
		}
		f.nodes += f.r.FlowNodesExpanded(f.flow, f.next)
		return ds[0].Symbols
	}
	f.lost++
	return 0
}

// join returns a closed-loop flow that shares f's receiver.
func (f *closedLoopFlow) join(flow uint32) *closedLoopFlow {
	return &closedLoopFlow{r: f.r, cfg: f.cfg, flow: flow, src: rng.New(uint64(flow))}
}

// threshold reads the flow's current decode threshold in symbols per
// segment (0 while the flow has too few records).
func (f *closedLoopFlow) threshold() float64 {
	e := f.r.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if h := e.hist[f.flow]; h != nil {
		return h.Threshold()
	}
	return 0
}

func awgnPipeline(t *testing.T, snrDB float64, seed uint64) *impair.Pipeline {
	t.Helper()
	p, err := impair.NewAWGN(snrDB, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecodeThresholdWorkGate pins the receiver's decode work on an
// awgn-link-shaped flow (K=8, c=10, 32 B, B=16, sequential schedule,
// 48-symbol frames, AWGN at 10 dB): almost every message decodes at frame 3,
// so once the flow has history its messages should attempt about once.
// Attempts and nodes are deterministic counters, so the node total is pinned
// exactly; a change to it is a change to the decoder or to the threshold.
func TestDecodeThresholdWorkGate(t *testing.T) {
	const msgs = 256
	// MaxPasses only bounds the frames encoded per message: its cap (288
	// symbols) is far above the learned threshold (144).
	cfg := Config{K: 8, C: 10, BeamWidth: 16, SymbolsPerFrame: 48, Schedule: ScheduleSequential, MaxPasses: 8}
	f := newClosedLoopFlow(t, cfg, 1)
	ch := awgnPipeline(t, 10, 1)
	for i := 0; i < msgs; i++ {
		f.send(t, ch, 32)
	}
	if f.lost != 0 {
		t.Fatalf("%d of %d messages lost", f.lost, msgs)
	}
	st := f.r.EngineStats()
	perMsg := float64(st.DecodeAttempts) / msgs
	t.Logf("%d messages: %.3f attempts/msg, %d nodes/msg, %d skips", msgs, perMsg, f.nodes/msgs, st.DecodeSkips)
	if perMsg > 1.1 {
		t.Errorf("%.3f decode attempts per message, want <= 1.1", perMsg)
	}
	if st.DecodeSkips == 0 {
		t.Error("threshold never held back an attempt")
	}
	const wantNodes = 39925248
	if f.nodes != wantNodes {
		t.Errorf("decode work %d nodes over %d messages, want exactly %d", f.nodes, msgs, wantNodes)
	}
}

// stepConfig is the small code the channel-change tests run: K=4, 16 B
// payloads (40 segments) and quarter-pass frames, so decode points resolve
// finely and hundreds of messages decode quickly.
var stepConfig = Config{K: 4, C: 10, BeamWidth: 16, SymbolsPerFrame: 10, MaxPasses: 40}

const (
	stepPayload = 16
	lowSNR      = 3
	highSNR     = 20
)

// operatingPoint returns the highest decode point, in symbols per segment,
// of n messages sent through ch on flows without history.
func operatingPoint(t *testing.T, ch *impair.Pipeline, n int) float64 {
	t.Helper()
	f := newClosedLoopFlow(t, stepConfig, 1)
	nseg := float64((stepPayload + 4) * 8 / stepConfig.K)
	worst := 0.0
	for i := 0; i < n; i++ {
		f.flow = uint32(i + 1)
		worst = max(worst, float64(f.send(t, ch, stepPayload))/nseg)
	}
	if f.lost != 0 {
		t.Fatalf("reference run lost %d of %d messages", f.lost, n)
	}
	return worst
}

// TestDecodeThresholdFollowsStepUp learns a flow's threshold at a low SNR,
// then raises the SNR: within probeEvery+historyMin messages a probe must
// find the better channel and the threshold must fall to the new operating
// point, with no message lost on the way.
func TestDecodeThresholdFollowsStepUp(t *testing.T) {
	high := operatingPoint(t, awgnPipeline(t, highSNR, 7), 20)
	f := newClosedLoopFlow(t, stepConfig, 1)
	low := awgnPipeline(t, lowSNR, 8)
	for i := 0; i < 40; i++ {
		f.send(t, low, stepPayload)
	}
	if q := f.threshold(); q <= high {
		t.Fatalf("threshold learned at %d dB is %.2f symbols/segment, not above the %d dB operating point %.2f: the step would test nothing",
			lowSNR, q, highSNR, high)
	}
	up := awgnPipeline(t, highSNR, 9)
	for i := 0; i < probeEvery+historyMin; i++ {
		f.send(t, up, stepPayload)
	}
	if q := f.threshold(); q == 0 || q > high {
		t.Errorf("%d messages after the step up, threshold is %.2f symbols/segment, want within the operating point %.2f",
			probeEvery+historyMin, q, high)
	}
	if f.lost != 0 {
		t.Fatalf("%d messages lost", f.lost)
	}
}

// TestDecodeThresholdStepDown learns a flow's threshold at a high SNR, then
// drops the SNR: messages held to the old threshold must still deliver (a
// threshold below the decode point only costs failed attempts), and the
// threshold must rise to follow the worse channel.
func TestDecodeThresholdStepDown(t *testing.T) {
	high := operatingPoint(t, awgnPipeline(t, highSNR, 7), 20)
	f := newClosedLoopFlow(t, stepConfig, 1)
	up := awgnPipeline(t, highSNR, 9)
	for i := 0; i < 40; i++ {
		f.send(t, up, stepPayload)
	}
	low := awgnPipeline(t, lowSNR, 8)
	for i := 0; i < 40; i++ {
		f.send(t, low, stepPayload)
	}
	if f.lost != 0 {
		t.Fatalf("%d messages lost", f.lost)
	}
	if q := f.threshold(); q <= high {
		t.Errorf("40 messages after the step down, threshold is %.2f symbols/segment, still within the %d dB operating point %.2f",
			q, highSNR, high)
	}
}

// TestDecodeThresholdCappedAtMaxPasses forces a flow's history above the
// MaxPasses budget: the threshold must be capped there, so every message
// still decodes on the last symbol its sender emits instead of waiting for
// symbols that never come.
func TestDecodeThresholdCappedAtMaxPasses(t *testing.T) {
	cfg := stepConfig
	cfg.MaxPasses = 3
	f := newClosedLoopFlow(t, cfg, 1)
	code := codeKey{k: cfg.K, c: cfg.C, schedule: cfg.Schedule}
	nseg := (stepPayload + 4) * 8 / cfg.K
	for i := 0; i < historyLen; i++ {
		f.r.eng.noteDecoded(f.flow, code, 100*nseg, nseg, true)
	}
	ch := awgnPipeline(t, highSNR, 9)
	for i := 0; i < 5; i++ {
		if got := f.send(t, ch, stepPayload); got != cfg.MaxPasses*nseg {
			t.Errorf("message %d decoded at %d symbols, want the cap %d", i+1, got, cfg.MaxPasses*nseg)
		}
	}
	if f.lost != 0 {
		t.Fatalf("%d messages lost", f.lost)
	}
}

// TestDecodeThresholdConcurrentFlows runs closed-loop flows through Receive
// with four decode workers, so flows' histories are read by ingest while
// the three helpers record into them: every message must deliver intact,
// histories must stay within MaxFlows, and Close must drop them all.
func TestDecodeThresholdConcurrentFlows(t *testing.T) {
	const flows, msgs = 4, 12
	far, near, err := NewPipePair(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, SymbolsPerFrame: 16, DecodeWorkers: 4}
	recv, err := NewReceiver(near, cfg, awgnPipeline(t, 15, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	payload := func(flow, msg uint32) []byte { return []byte(fmt.Sprintf("flow %d message %d", flow, msg)) }
	send := func(flow, msg uint32) {
		frames, err := EncodeFrames(cfg, flow, msg, payload(flow, msg), cfg.SymbolsPerFrame, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := far.Send(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := uint32(1); f <= flows; f++ {
		send(f, 1)
	}
	seen := map[uint64]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < flows*msgs && time.Now().Before(deadline) {
		d, err := recv.Receive(100 * time.Millisecond)
		if errors.Is(err, ErrTimeout) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Payload, payload(d.FlowID, d.MsgID)) {
			t.Fatalf("flow %d message %d delivered %q", d.FlowID, d.MsgID, d.Payload)
		}
		k := uint64(d.FlowID)<<32 | uint64(d.MsgID)
		if seen[k] {
			continue
		}
		seen[k] = true
		if d.MsgID < msgs {
			send(d.FlowID, d.MsgID+1)
		}
		recv.eng.mu.Lock()
		n := len(recv.eng.hist)
		recv.eng.mu.Unlock()
		if n > recv.cfg.MaxFlows {
			t.Fatalf("%d flow histories, more than MaxFlows %d", n, recv.cfg.MaxFlows)
		}
	}
	if len(seen) != flows*msgs {
		t.Fatalf("delivered %d of %d messages", len(seen), flows*msgs)
	}
	recv.Close()
	if n := len(recv.eng.hist); n != 0 {
		t.Fatalf("%d flow histories survive Close", n)
	}
}

// TestDecodeThresholdOutlivesTrackedState lets a flow learn its threshold,
// then goes quiet while another flow's frames age its delivered states out
// of the grace window, so the receiver stops tracking it. The history must
// survive that: the flow's next message is held back to the threshold.
func TestDecodeThresholdOutlivesTrackedState(t *testing.T) {
	a := newClosedLoopFlow(t, stepConfig, 1)
	b := a.join(2)
	ch := awgnPipeline(t, highSNR, 9)
	for i := 0; i < 2*historyMin; i++ {
		a.send(t, ch, stepPayload)
	}
	if a.threshold() == 0 {
		t.Fatalf("no threshold after %d messages", 2*historyMin)
	}
	for a.r.flows[a.flow] != nil {
		if b.next == 100 {
			t.Fatalf("flow %d still tracked after %d messages of flow %d", a.flow, b.next, b.flow)
		}
		b.send(t, ch, stepPayload)
	}
	before := a.r.EngineStats()
	a.send(t, ch, stepPayload)
	after := a.r.EngineStats()
	if n := after.DecodeThresholded - before.DecodeThresholded; n != 1 {
		t.Errorf("returning flow's message used a learned threshold %d times, want 1", n)
	}
	if after.DecodeSkips == before.DecodeSkips {
		t.Error("returning flow's message attempted before its threshold")
	}
	if a.lost+b.lost != 0 {
		t.Fatalf("%d messages lost", a.lost+b.lost)
	}
}

// TestDecodeThresholdInterleavedWorkGate pins the decode work of flows whose
// frames interleave and who rest between messages for longer than the
// receiver's grace window, the fading-flows pattern: the receiver forgets
// most flows between their messages, and their histories must carry over.
// Like TestDecodeThresholdWorkGate, attempts and nodes are pinned exactly.
func TestDecodeThresholdInterleavedWorkGate(t *testing.T) {
	const flows, msgs, rest = 16, 8, 32
	cfg := stepConfig
	cfg.SymbolsPerFrame = 5
	r, _ := newTestReceiver(t, cfg)
	cfg = cfg.withDefaults()
	type flowRun struct {
		id      uint32
		ch      *impair.Pipeline
		src     *rng.Rand
		sent    uint32   // messages started
		frames  [][]byte // frames of the message in flight, nil between messages
		next    int      // next frame to send
		payload []byte
		idle    int // rounds left before the next message
	}
	runs := make([]*flowRun, flows)
	for i := range runs {
		// Mean SNRs spread over 6-21 dB, one flow per dB.
		id := uint32(i + 1)
		runs[i] = &flowRun{id: id, ch: awgnPipeline(t, float64(6+i), uint64(100+i)), src: rng.New(uint64(id))}
	}
	var nodes int64
	delivered, returned := 0, 0
	for busy := true; busy; {
		busy = false
		for _, f := range runs {
			if f.frames == nil {
				if f.idle > 0 {
					f.idle--
					busy = true
					continue
				}
				if f.sent == msgs {
					continue
				}
				if f.sent > 0 && r.flows[f.id] == nil {
					returned++
				}
				f.sent++
				f.payload = make([]byte, stepPayload)
				f.src.Bytes(f.payload)
				var err error
				f.frames, err = EncodeFrames(cfg, f.id, f.sent, f.payload, cfg.SymbolsPerFrame, cfg.MaxPasses, f.ch.Corrupt)
				if err != nil {
					t.Fatal(err)
				}
				f.next = 0
			}
			busy = true
			ds, err := r.HandleFrames(f.frames[f.next : f.next+1])
			if err != nil {
				t.Fatal(err)
			}
			f.next++
			switch {
			case len(ds) == 1 && ds[0].FlowID == f.id && ds[0].MsgID == f.sent && bytes.Equal(ds[0].Payload, f.payload):
				nodes += r.FlowNodesExpanded(f.id, f.sent)
				delivered++
				f.frames, f.idle = nil, rest
			case len(ds) != 0:
				t.Fatalf("flow %d message %d: delivered %+v, want exactly its own payload", f.id, f.sent, ds)
			case f.next == len(f.frames):
				t.Fatalf("flow %d message %d never decoded", f.id, f.sent)
			}
		}
	}
	if delivered != flows*msgs {
		t.Fatalf("delivered %d of %d messages", delivered, flows*msgs)
	}
	st := r.EngineStats()
	t.Logf("%d messages, %d of %d returning to a forgotten flow: %.3f attempts/msg, %d nodes/msg, %d thresholded, %d skips",
		delivered, returned, flows*(msgs-1), float64(st.DecodeAttempts)/float64(delivered), nodes/int64(delivered),
		st.DecodeThresholded, st.DecodeSkips)
	if 2*returned < flows*(msgs-1) {
		t.Fatalf("only %d of %d messages found their flow forgotten: the gate does not test returning flows",
			returned, flows*(msgs-1))
	}
	// Every message after a flow's first historyMin has history to use.
	if want := uint64(flows * (msgs - historyMin)); st.DecodeThresholded != want {
		t.Errorf("%d messages used a learned threshold, want %d", st.DecodeThresholded, want)
	}
	// Without histories that outlive the flows: 1515 attempts, 63810480 nodes.
	const wantAttempts, wantNodes = 902, 33350240
	if st.DecodeAttempts != wantAttempts {
		t.Errorf("%d decode attempts, want exactly %d", st.DecodeAttempts, wantAttempts)
	}
	if nodes != wantNodes {
		t.Errorf("decode work %d nodes over %d messages, want exactly %d", nodes, delivered, wantNodes)
	}
}

// TestDecodeHistoryTableLRU sends 3×MaxFlows distinct flows through a
// receiver with a small MaxFlows: the history table must never hold more
// than MaxFlows flows, and a full table must evict the flow whose history
// was least recently read (a new message asking for its threshold) or
// written (a decode recorded).
func TestDecodeHistoryTableLRU(t *testing.T) {
	const maxFlows = 4
	cfg := stepConfig
	cfg.MaxFlows = maxFlows
	first := newClosedLoopFlow(t, cfg, 1)
	flows := map[uint32]*closedLoopFlow{1: first}
	for id := uint32(2); id <= 3*maxFlows; id++ {
		flows[id] = first.join(id)
	}
	ch := awgnPipeline(t, highSNR, 9)
	held := func(want ...uint32) {
		t.Helper()
		e := first.r.eng
		e.mu.Lock()
		got := make([]uint32, 0, len(e.hist))
		for id := range e.hist {
			got = append(got, id)
		}
		e.mu.Unlock()
		slices.Sort(got)
		if len(got) > maxFlows {
			t.Fatalf("%d histories, more than MaxFlows %d", len(got), maxFlows)
		}
		if want != nil && !slices.Equal(got, want) {
			t.Fatalf("histories held for flows %v, want %v", got, want)
		}
	}
	for id := uint32(1); id <= maxFlows; id++ {
		flows[id].send(t, ch, stepPayload)
	}
	// Flow 1 keeps sending until the receiver forgets flows 2-4: their
	// histories stay, and flow 1's recorded decodes make it the most recent.
	for first.r.TrackedFlows() > 1 {
		if first.next == 100 {
			t.Fatalf("flows 2-%d still tracked after %d messages of flow 1", maxFlows, first.next)
		}
		first.send(t, ch, stepPayload)
	}
	held(1, 2, 3, 4)
	flows[5].send(t, ch, stepPayload)
	held(1, 3, 4, 5)
	// A threshold read alone refreshes flow 3: the first frame of its next
	// message asks for the threshold but cannot decode. Flow 6 evicts flow 4.
	f3 := flows[3]
	f3.next++
	frames, err := EncodeFrames(f3.cfg, f3.flow, f3.next, make([]byte, stepPayload), f3.cfg.SymbolsPerFrame, f3.cfg.MaxPasses, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := first.r.HandleFrames(frames[:1]); err != nil || len(ds) != 0 {
		t.Fatalf("one frame of flow 3 delivered %+v (error %v), want nothing", ds, err)
	}
	flows[6].send(t, ch, stepPayload)
	held(1, 3, 5, 6)
	// A decode under another code restarts flow 1's history, and the
	// restart counts as a use too: flow 7 evicts flow 5.
	recoded := *first
	recoded.cfg.C = 8
	recoded.send(t, ch, stepPayload)
	flows[7].send(t, ch, stepPayload)
	held(1, 3, 6, 7)
	for id := uint32(8); id <= 3*maxFlows; id++ {
		flows[id].send(t, ch, stepPayload)
		held()
	}
	held(9, 10, 11, 12)
	lost := recoded.lost
	for _, f := range flows {
		lost += f.lost
	}
	if lost != 0 {
		t.Fatalf("%d messages lost", lost)
	}
}
