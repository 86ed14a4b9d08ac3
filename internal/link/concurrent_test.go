package link

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"spinal/internal/core"
	"spinal/internal/crc"
)

// Tests for the receiver's concurrent decode pipeline and its state
// eviction. These drive the receiver with hand-built frames over an
// in-memory pipe, so they are deterministic and race-detector friendly —
// unlike the wall-clock pacing tests, nothing here depends on decode
// latency.

// testStream encodes one payload the way the Sender does and yields its
// frames in SymbolsPerFrame-sized chunks.
type testStream struct {
	msgID   uint32
	message []byte
	enc     *core.Encoder
	sched   core.Schedule
	params  core.Params
	next    int
}

func newTestStream(t *testing.T, cfg Config, msgID uint32, payload []byte) *testStream {
	t.Helper()
	cfg = cfg.withDefaults()
	message := crc.Append32(append([]byte(nil), payload...))
	params := core.Params{K: cfg.K, C: cfg.C, MessageBits: len(message) * 8, Seed: cfg.Seed}
	enc, err := core.NewEncoder(params, message)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduleFor(cfg.Schedule, params.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	return &testStream{msgID: msgID, message: message, enc: enc, sched: sched, params: params}
}

// frame marshals the next `count` symbols of the stream as a frame of the
// given flow.
func (s *testStream) frame(t *testing.T, cfg Config, flow uint32, count int) []byte {
	t.Helper()
	cfg = cfg.withDefaults()
	f := &DataFrame{
		Version:     FrameV1,
		FlowID:      flow,
		MsgID:       s.msgID,
		MessageBits: uint32(s.params.MessageBits),
		K:           uint8(cfg.K),
		C:           uint8(cfg.C),
		Schedule:    cfg.Schedule,
		Seed:        cfg.Seed,
		StartIndex:  uint32(s.next),
		Symbols:     make([]complex128, count),
	}
	for i := 0; i < count; i++ {
		f.Symbols[i] = s.enc.SymbolAt(s.sched.Pos(s.next + i))
	}
	s.next += count
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReceiverDecodesInterleavedMessagesConcurrently feeds frames of several
// in-flight messages interleaved symbol-chunk by symbol-chunk through the
// transport and checks that a multi-worker receiver delivers every payload
// intact — the per-message decode mutex must keep results correct even
// though distinct messages decode on different workers (Receive's goroutine
// and the helpers).
func TestReceiverDecodesInterleavedMessagesConcurrently(t *testing.T) {
	far, near, err := NewPipePair(0, 71)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, DecodeWorkers: 3}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	payloads := map[uint32][]byte{
		1: []byte("first interleaved packet"),
		2: bytes.Repeat([]byte{0x5A}, 60),
		3: []byte("third packet riding along on a different decode worker"),
	}
	streams := make([]*testStream, 0, len(payloads))
	for id := uint32(1); id <= 3; id++ {
		streams = append(streams, newTestStream(t, cfg, id, payloads[id]))
	}
	// Interleave: one 16-symbol chunk per message per round, two noiseless
	// passes' worth — every message becomes decodable mid-way through.
	maxNeed := 0
	for _, s := range streams {
		if n := 2 * s.params.NumSegments(); n > maxNeed {
			maxNeed = n
		}
	}
	for sent := 0; sent < maxNeed; sent += 16 {
		for _, s := range streams {
			if sent >= 2*s.params.NumSegments() {
				continue
			}
			count := 16
			if rest := 2*s.params.NumSegments() - sent; rest < count {
				count = rest
			}
			if err := far.Send(s.frame(t, cfg, 0, count)); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := map[uint32][]byte{}
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < len(payloads) && time.Now().Before(deadline) {
		d, err := recv.Receive(100 * time.Millisecond)
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got[d.MsgID] = d.Payload
		if d.Symbols <= 0 {
			t.Fatalf("message %d delivered with implausible symbol count %d", d.MsgID, d.Symbols)
		}
	}
	for id, want := range payloads {
		if !bytes.Equal(got[id], want) {
			t.Fatalf("message %d: delivered payload differs (got %d bytes, want %d)", id, len(got[id]), len(want))
		}
	}
}

// TestReceiverConcurrentMatchesSingleWorker runs the same interleaved frame
// sequence through 1-, 2- and 4-worker receivers and checks the delivered
// payloads agree — concurrency must not change per-message results. One
// worker is Receive's goroutine alone; two add one helper beside it. The
// sequence mixes several messages of one flow with several flows of two
// messages each, so the decode workers also interleave flows.
func TestReceiverConcurrentMatchesSingleWorker(t *testing.T) {
	type key struct{ flow, msg uint32 }
	var keys []key
	for id := uint32(10); id < 14; id++ {
		keys = append(keys, key{0, id})
	}
	for flow := uint32(21); flow < 24; flow++ {
		keys = append(keys, key{flow, 1}, key{flow, 2})
	}
	run := func(workers int) map[key][]byte {
		far, near, err := NewPipePair(0, 72)
		if err != nil {
			t.Fatal(err)
		}
		defer far.Close()
		cfg := Config{K: 4, DecodeWorkers: workers}
		recv, err := NewReceiver(near, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		streams := make([]*testStream, len(keys))
		for i, k := range keys {
			streams[i] = newTestStream(t, cfg,
				k.msg, []byte(fmt.Sprintf("payload %d of flow %d", k.msg, k.flow)))
		}
		for round := 0; round < 8; round++ {
			for i, s := range streams {
				if err := far.Send(s.frame(t, cfg, keys[i].flow, 8)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := map[key][]byte{}
		deadline := time.Now().Add(5 * time.Second)
		for len(got) < len(streams) && time.Now().Before(deadline) {
			d, err := recv.Receive(100 * time.Millisecond)
			if err == ErrTimeout {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got[key{d.FlowID, d.MsgID}] = d.Payload
		}
		return got
	}
	serial := run(1)
	if len(serial) != len(keys) {
		t.Fatalf("single-worker receiver delivered %d/%d messages", len(serial), len(keys))
	}
	for _, workers := range []int{2, 4} {
		concurrent := run(workers)
		for k, want := range serial {
			if !bytes.Equal(concurrent[k], want) {
				t.Fatalf("flow %d message %d: %d-worker payload differs from 1-worker payload", k.flow, k.msg, workers)
			}
		}
	}
}

// TestReceiveDecodesOnCallerGoroutine pins the single-worker receiver:
// NewReceiver starts no goroutine, so Receive decodes on its caller, and it
// delivers what HandleFrames delivers on the same frames. Close with tokens
// still queued must run them itself, returning the lease of an evicted
// message whose orphaned token only that run hands back.
func TestReceiveDecodesOnCallerGoroutine(t *testing.T) {
	type key struct{ flow, msg uint32 }
	cfg := Config{K: 4, DecodeWorkers: 1}
	// Four messages over two flows, two noiseless passes each, interleaved
	// one 16-symbol frame at a time.
	var frames [][]byte
	want := map[key][]byte{}
	var streams []*testStream
	var flows []uint32
	for i := uint32(0); i < 4; i++ {
		k := key{flow: 1 + i%2, msg: 10 + i}
		want[k] = []byte(fmt.Sprintf("inline payload %d of flow %d", k.msg, k.flow))
		streams = append(streams, newTestStream(t, cfg, k.msg, want[k]))
		flows = append(flows, k.flow)
	}
	for more := true; more; {
		more = false
		for i, s := range streams {
			if rest := 2*s.params.NumSegments() - s.next; rest > 0 {
				frames = append(frames, s.frame(t, cfg, flows[i], min(16, rest)))
				more = true
			}
		}
	}

	_, ackSink, err := NewPipePair(0, 78)
	if err != nil {
		t.Fatal(err)
	}
	defer ackSink.Close()
	direct, err := NewReceiver(ackSink, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	handled, err := direct.HandleFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(handled) != len(want) {
		t.Fatalf("HandleFrames delivered %d/%d messages", len(handled), len(want))
	}

	far, near, err := NewPipePair(0, 79)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	before := runtime.NumGoroutine()
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a 1-worker receiver started %d goroutines", after-before)
	}
	defer recv.Close()
	for _, f := range frames {
		if err := far.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	got := map[key][]byte{}
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < len(want) && time.Now().Before(deadline) {
		d, err := recv.Receive(100 * time.Millisecond)
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got[key{d.FlowID, d.MsgID}] = d.Payload
	}
	for _, d := range handled {
		if !bytes.Equal(got[key{d.FlowID, d.MsgID}], d.Payload) {
			t.Fatalf("flow %d message %d: Receive and HandleFrames delivered different payloads", d.FlowID, d.MsgID)
		}
	}

	// Close with queued tokens. Under MaxTracked 2, message C evicts B (the
	// stalest in flight) while B's token is queued behind A's; Receive runs
	// A's and returns its delivery, leaving B's orphaned token and C's.
	far, near, err = NewPipePair(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	capped, err := NewReceiver(near, Config{K: 4, DecodeWorkers: 1, MaxTracked: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := newTestStream(t, cfg, 1, []byte("decodes before close"))
	b := newTestStream(t, cfg, 2, []byte("evicted with its token queued"))
	c := newTestStream(t, cfg, 3, []byte("queued at close"))
	seq := [][]byte{a.frame(t, cfg, 0, 16), b.frame(t, cfg, 0, 8)}
	for rest := 2*a.params.NumSegments() - a.next; rest > 0; rest = 2*a.params.NumSegments() - a.next {
		seq = append(seq, a.frame(t, cfg, 0, min(16, rest)))
	}
	seq = append(seq, c.frame(t, cfg, 0, 8))
	for _, f := range seq {
		if err := far.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	d, err := capped.Receive(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d.MsgID != 1 {
		t.Fatalf("delivered message %d, want 1", d.MsgID)
	}
	if queued, _ := capped.eng.load(); queued != 2 {
		t.Fatalf("%d tokens queued before Close, want 2", queued)
	}
	if err := capped.Close(); err != nil {
		t.Fatal(err)
	}
	if n := capped.PoolStats().Outstanding; n != 0 {
		t.Errorf("%d decoder leases outstanding after Close", n)
	}
	if n := capped.EngineStats().AckArena.Outstanding; n != 0 {
		t.Errorf("%d ack buffers outstanding after Close", n)
	}
}

// TestReceiverEvictsDeliveredStates checks the post-ACK grace eviction: a
// delivered message's state survives just after delivery (so late duplicate
// frames get the ack repeated) and is dropped once enough unrelated frames
// have passed.
func TestReceiverEvictsDeliveredStates(t *testing.T) {
	far, near, err := NewPipePair(0, 73)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// Deliver message 1 synchronously through the single-frame path.
	s1 := newTestStream(t, cfg, 1, []byte("evict me after the grace period"))
	var delivered *Delivered
	for delivered == nil && s1.next < 3*s1.params.NumSegments() {
		delivered, err = recv.HandleFrame(s1.frame(t, cfg, 0, 16))
		if err != nil {
			t.Fatal(err)
		}
	}
	if delivered == nil {
		t.Fatal("noiseless message never delivered")
	}
	if recv.TrackedMessages() != 1 {
		t.Fatalf("tracked %d states after delivery, want 1 (grace period)", recv.TrackedMessages())
	}

	// A duplicate frame for the delivered message must repeat the ack.
	dup := newTestStream(t, cfg, 1, []byte("evict me after the grace period"))
	if _, err := recv.HandleFrame(dup.frame(t, cfg, 0, 8)); err != nil {
		t.Fatal(err)
	}
	ackBuf := make([]byte, maxFrameSize)
	n, err := far.Receive(ackBuf, time.Second)
	if err != nil {
		t.Fatal("no ack for the original delivery")
	}
	sawRepeat := false
	for {
		parsed, perr := ParseFrame(ackBuf[:n])
		if perr == nil {
			if ack, ok := parsed.(*AckFrame); ok && ack.MsgID == 1 && ack.Decoded {
				sawRepeat = true
			}
		}
		n, err = far.Receive(ackBuf, 0)
		if err != nil {
			break
		}
	}
	if !sawRepeat {
		t.Fatal("duplicate frame did not trigger an ack repeat")
	}

	// Push unrelated traffic past the grace period; message 1 must be gone.
	other := newTestStream(t, cfg, 2, bytes.Repeat([]byte{7}, 40))
	for i := 0; i < doneGraceFrames+evictSweepEvery+2; i++ {
		if _, err := recv.HandleFrame(other.frame(t, cfg, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if recv.FlowSymbolsReceived(0, 1) != 0 {
		t.Fatal("delivered state for message 1 still tracked past the grace period")
	}
	if recv.TrackedMessages() != 1 { // only message 2 remains
		t.Fatalf("tracked %d states, want 1", recv.TrackedMessages())
	}
}

// TestReceiverCapsTrackedStates checks the bound on simultaneously tracked
// messages: the oldest state is evicted to admit a new one, and the evicted
// message can still complete later from fresh frames.
func TestReceiverCapsTrackedStates(t *testing.T) {
	far, near, err := NewPipePair(0, 74)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, MaxTracked: 3}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	for id := uint32(1); id <= 5; id++ {
		s := newTestStream(t, cfg, id, []byte(fmt.Sprintf("capped message %d", id)))
		// One symbol only: the message stays undecodable and in flight.
		if _, err := recv.HandleFrame(s.frame(t, cfg, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recv.TrackedMessages(); got > 3 {
		t.Fatalf("tracked %d states, cap is 3", got)
	}
	if recv.FlowSymbolsReceived(0, 1) != 0 || recv.FlowSymbolsReceived(0, 2) != 0 {
		t.Fatal("oldest states were not the ones evicted")
	}
	if recv.FlowSymbolsReceived(0, 5) == 0 {
		t.Fatal("newest state was evicted instead of the oldest")
	}

	// The evicted message is not lost: a fresh stream for it still decodes.
	s1 := newTestStream(t, cfg, 1, []byte("capped message 1"))
	var delivered *Delivered
	for delivered == nil && s1.next < 3*s1.params.NumSegments() {
		delivered, err = recv.HandleFrame(s1.frame(t, cfg, 0, 16))
		if err != nil {
			t.Fatal(err)
		}
	}
	if delivered == nil || !bytes.Equal(delivered.Payload, []byte("capped message 1")) {
		t.Fatal("evicted message could not be re-received from scratch")
	}
}

// TestReceiverCloseStopsWorkers checks Close is idempotent and leaves the
// receiver quiescent.
func TestReceiverCloseStopsWorkers(t *testing.T) {
	_, near, err := NewPipePair(0, 75)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiver(near, Config{DecodeWorkers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
}

// invalidConfigs are configurations validate must reject; both NewSender
// and NewReceiver run it.
var invalidConfigs = []struct {
	name string
	cfg  Config
}{
	{"negative DecodeWorkers", Config{DecodeWorkers: -1}},
	{"negative MaxTracked", Config{MaxTracked: -3}},
	{"negative AckPoll with explicit AckPollMax", Config{AckPoll: -time.Millisecond, AckPollMax: time.Millisecond}},
	{"negative AckPoll", Config{AckPoll: -time.Millisecond}},
	{"AckPollMax below AckPoll", Config{AckPoll: 2 * time.Millisecond, AckPollMax: time.Millisecond}},
	{"negative FinalWait", Config{FinalWait: -time.Second}},
	{"negative SendDeadline", Config{SendDeadline: -time.Second}},
	{"FlushFrames over the bound", Config{FlushFrames: maxFlushFrames + 1}},
}

// TestReceiverConfigValidation checks that NewReceiver rejects every
// invalid configuration and accepts a valid one.
func TestReceiverConfigValidation(t *testing.T) {
	_, near, _ := NewPipePair(0, 76)
	defer near.Close()
	for _, tc := range invalidConfigs {
		if r, err := NewReceiver(near, tc.cfg, nil); err == nil {
			r.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
	r, err := NewReceiver(near, Config{DecodeWorkers: 2, MaxTracked: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
}

// TestSenderConfigValidation runs the same table through NewSender.
func TestSenderConfigValidation(t *testing.T) {
	far, _, _ := NewPipePair(0, 77)
	defer far.Close()
	for _, tc := range invalidConfigs {
		if _, err := NewSender(far, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewSender(far, Config{AckPoll: time.Millisecond, FinalWait: time.Second}); err != nil {
		t.Fatal(err)
	}
}
