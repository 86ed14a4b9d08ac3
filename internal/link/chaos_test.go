package link

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// encodeTestFrames builds the deterministic frame sequence of one message,
// failing the test on error.
func encodeTestFrames(t *testing.T, cfg Config, flow, msg uint32, payload []byte, symbolsPerFrame, passes int) [][]byte {
	t.Helper()
	frames, err := EncodeFrames(cfg, flow, msg, payload, symbolsPerFrame, passes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// deliverAll replays a frame sequence through a fresh receiver via the
// deterministic HandleFrames path and returns the delivered payloads keyed by
// (flow, msg).
func deliverAll(t *testing.T, cfg Config, frames [][]byte) map[uint64][]byte {
	t.Helper()
	near, far, err := NewPipePair(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	r, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := map[uint64][]byte{}
	ds, err := r.HandleFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		key := uint64(d.FlowID)<<32 | uint64(d.MsgID)
		if prev, ok := out[key]; ok && !bytes.Equal(prev, d.Payload) {
			t.Fatalf("flow %d msg %d delivered twice with different payloads", d.FlowID, d.MsgID)
		}
		out[key] = d.Payload
	}
	return out
}

// TestReceiverDuplicateAndReorderProperty pins the property the fault model
// relies on: a receiver fed duplicated data frames, or frames reordered
// within a bounded window, delivers payloads bit-identical to the
// clean-transport run. Duplicates append extra observations (cost-summed,
// CRC-gated) and reordering only changes the fold order, so correctness must
// be unaffected.
func TestReceiverDuplicateAndReorderProperty(t *testing.T) {
	cfg := Config{K: 4, Seed: 77}
	payloads := [][]byte{
		[]byte("chaos property payload one"),
		bytes.Repeat([]byte{0x5A, 0xC3}, 20),
	}
	var clean [][]byte
	for i, p := range payloads {
		clean = append(clean, encodeTestFrames(t, cfg, uint32(i+1), uint32(i+1), p, 8, 2)...)
	}
	want := deliverAll(t, cfg, clean)
	if len(want) != len(payloads) {
		t.Fatalf("clean run delivered %d/%d messages", len(want), len(payloads))
	}
	for i, p := range payloads {
		if got := want[uint64(i+1)<<32|uint64(i+1)]; !bytes.Equal(got, p) {
			t.Fatalf("clean run corrupted payload %d", i+1)
		}
	}

	// Every frame duplicated back to back.
	var dup [][]byte
	for _, f := range clean {
		dup = append(dup, f, f)
	}
	// Bounded reorder: swap adjacent pairs, then duplicate a prefix at the
	// end (stale retransmissions arriving long after the originals).
	reordered := append([][]byte{}, clean...)
	for i := 0; i+1 < len(reordered); i += 2 {
		reordered[i], reordered[i+1] = reordered[i+1], reordered[i]
	}
	reordered = append(reordered, clean[:len(clean)/2]...)

	for name, seq := range map[string][][]byte{"duplicated": dup, "reordered": reordered} {
		got := deliverAll(t, cfg, seq)
		if len(got) != len(want) {
			t.Fatalf("%s run delivered %d messages, clean delivered %d", name, len(got), len(want))
		}
		for key, wp := range want {
			if !bytes.Equal(got[key], wp) {
				t.Errorf("%s run: payload for key %#x not bit-identical to clean run", name, key)
			}
		}
	}
}

// TestLinkUnderAckFaults runs the full sender/receiver loop with the ack
// direction faulted — dropped, duplicated and reordered acks plus duplicated
// data frames — and requires every message acknowledged with payloads
// bit-identical to what was sent. Lost acks force the ack-repeat path;
// duplicated stale acks land in the next message's wait and must be ignored
// (and counted), never misattributed.
func TestLinkUnderAckFaults(t *testing.T) {
	near, far, err := NewPipePair(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	tx := FaultProfile{DupProb: 0.2}
	rx := FaultProfile{DropProb: 0.3, DupProb: 0.3, ReorderProb: 0.2, ReorderDepth: 3}
	ftr := NewFaultTransport(near, tx, rx, 1234)
	cfg := Config{K: 4, Seed: 21, MaxPasses: 120}
	snd, err := NewSender(ftr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiver(far, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	delivered, wg := runReceiver(t, recv, stop)

	const msgs = 5
	ignored := 0
	for m := 1; m <= msgs; m++ {
		payload := []byte(fmt.Sprintf("ack-fault message %02d payload", m))
		rep, err := snd.Send(uint32(m), payload)
		if err != nil {
			t.Fatalf("message %d: %v", m, err)
		}
		if !rep.Acked {
			t.Fatalf("message %d not acknowledged under ack faults", m)
		}
		ignored += rep.AckFramesIgnored
	}
	got := map[uint32][]byte{}
	deadline := time.After(5 * time.Second)
	for len(got) < msgs {
		select {
		case d := <-delivered:
			got[d.MsgID] = d.Payload
		case <-deadline:
			t.Fatalf("only %d/%d messages delivered", len(got), msgs)
		}
	}
	for m := 1; m <= msgs; m++ {
		want := []byte(fmt.Sprintf("ack-fault message %02d payload", m))
		if !bytes.Equal(got[uint32(m)], want) {
			t.Errorf("message %d payload not bit-identical", m)
		}
	}
	if stats := ftr.(interface{ RxStats() LaneStats }).RxStats(); stats.Dropped == 0 || stats.Duplicated == 0 {
		t.Errorf("ack fault schedule never fired: %+v", stats)
	}
	if ignored == 0 {
		t.Error("duplicated stale acks were never counted as ignored")
	}
	close(stop)
	near.Close()
	wg.Wait()
	recv.Close()
	if out := recv.PoolStats().Outstanding; out != 0 {
		t.Errorf("%d decoder leases leaked after close", out)
	}
}

// TestFaultTransportDeterministic pins the reproducibility contract: two
// transports with the same profiles and seed apply the identical schedule to
// the identical frame sequence.
func TestFaultTransportDeterministic(t *testing.T) {
	profile := FaultProfile{
		DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.2, CorruptProb: 0.3,
		GE:         &GilbertElliott{GoodToBad: 0.1, BadToGood: 0.4, BadLoss: 0.8},
		StallEvery: 16, StallFrames: 2,
	}
	run := func() ([][]byte, LaneStats) {
		near, far, err := NewPipePair(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer far.Close()
		ftr := NewFaultTransport(near, profile, FaultProfile{}, 42)
		for i := 0; i < 200; i++ {
			frame := bytes.Repeat([]byte{byte(i)}, 32)
			if err := ftr.Send(frame); err != nil {
				t.Fatal(err)
			}
		}
		var got [][]byte
		buf := make([]byte, MaxFrameSize)
		for {
			n, err := far.Receive(buf, 0)
			if errors.Is(err, ErrTimeout) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
		return got, ftr.(interface{ TxStats() LaneStats }).TxStats()
	}
	frames1, stats1 := run()
	frames2, stats2 := run()
	if stats1 != stats2 {
		t.Fatalf("fault schedules diverged: %+v vs %+v", stats1, stats2)
	}
	if stats1.Dropped == 0 || stats1.Corrupted == 0 || stats1.Duplicated == 0 || stats1.Stalled == 0 {
		t.Fatalf("schedule did not exercise every fault: %+v", stats1)
	}
	if len(frames1) != len(frames2) {
		t.Fatalf("runs emitted %d vs %d frames", len(frames1), len(frames2))
	}
	for i := range frames1 {
		if !bytes.Equal(frames1[i], frames2[i]) {
			t.Fatalf("frame %d differs between identically seeded runs", i)
		}
	}
}

// TestFaultTransportPreservesCapabilities pins the wrapper constructor's
// contract: type assertions on the wrapped transport answer exactly as they
// would on the inner one.
func TestFaultTransportPreservesCapabilities(t *testing.T) {
	near, far, err := NewPipePair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	defer far.Close()
	// A Pipe is a BatchTransport but not a PacketTransport.
	wrapped := NewFaultTransport(near, FaultProfile{}, FaultProfile{}, 1)
	if _, ok := wrapped.(BatchTransport); !ok {
		t.Error("wrapping a BatchTransport lost the batch capability")
	}
	if _, ok := wrapped.(PacketTransport); ok {
		t.Error("wrapping a Pipe invented a packet capability")
	}
	// A bare Transport stays bare.
	bare := NewFaultTransport(plainTransport{near}, FaultProfile{}, FaultProfile{}, 1)
	if _, ok := bare.(BatchTransport); ok {
		t.Error("wrapping a bare transport invented a batch capability")
	}
}

// plainTransport hides a Pipe's optional interfaces.
type plainTransport struct{ p *Pipe }

func (t plainTransport) Send(frame []byte) error { return t.p.Send(frame) }
func (t plainTransport) Receive(buf []byte, timeout time.Duration) (int, error) {
	return t.p.Receive(buf, timeout)
}
func (t plainTransport) Close() error { return t.p.Close() }

// TestSenderDeadline pins the typed give-up path: a sender whose frames all
// vanish must stop at SendDeadline with an error wrapping ErrDeadline and the
// report flagged, not spin forever.
func TestSenderDeadline(t *testing.T) {
	near, far, err := NewPipePair(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	defer far.Close()
	ftr := NewFaultTransport(near, FaultProfile{DropProb: 1}, FaultProfile{}, 9)
	cfg := Config{K: 4, Seed: 33, SendDeadline: 80 * time.Millisecond, FinalWait: 20 * time.Millisecond}
	snd, err := NewSender(ftr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := snd.Send(1, []byte("doomed"))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if rep == nil || !rep.DeadlineExceeded {
		t.Fatalf("report not flagged: %+v", rep)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline send took %v", elapsed)
	}
}

// TestSenderRidesOutTransientErrors pins Send's resumability: injected
// transient transport errors on both directions must be absorbed by the retry
// budget, not fail the message.
func TestSenderRidesOutTransientErrors(t *testing.T) {
	near, far, err := NewPipePair(0, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	ftr := NewFaultTransport(near, FaultProfile{ErrProb: 0.3}, FaultProfile{ErrProb: 0.3}, 77)
	cfg := Config{K: 4, Seed: 51, MaxPasses: 120}
	snd, err := NewSender(ftr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiver(far, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	_, wg := runReceiver(t, recv, stop)
	// Keep sending until the deterministic error schedule has demonstrably
	// fired at least once on the data direction (bounded: p(miss) vanishes).
	stats := func() LaneStats { return ftr.(interface{ TxStats() LaneStats }).TxStats() }
	for m := uint32(1); m <= 20; m++ {
		rep, err := snd.Send(m, []byte("transient faults must not kill this send"))
		if err != nil {
			t.Fatalf("message %d failed despite retry budget: %v", m, err)
		}
		if !rep.Acked {
			t.Fatalf("message %d not acknowledged", m)
		}
		if stats().Errors > 0 {
			break
		}
	}
	if stats().Errors == 0 {
		t.Error("tx error schedule never fired across 20 messages")
	}
	close(stop)
	near.Close()
	wg.Wait()
	recv.Close()
}

// TestReceiverIdleExpiry pins zombie-flow reclamation: a flow that goes
// silent mid-message is expired from the Receive loop, its undelivered
// message NACKed and its decoder lease returned.
func TestReceiverIdleExpiry(t *testing.T) {
	near, far, err := NewPipePair(0, 17)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	cfg := Config{K: 4, Seed: 61, IdleExpiry: 40 * time.Millisecond}
	recv, err := NewReceiver(far, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One frame of a multi-frame message: not enough symbols to decode, so
	// the flow sits in-flight when the sender goes silent.
	frames := encodeTestFrames(t, cfg, 3, 1, bytes.Repeat([]byte{0xEE}, 64), 8, 1)
	if err := near.Send(frames[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.ExpiredFlows() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle flow never expired")
		}
		if _, err := recv.Receive(10 * time.Millisecond); err != nil && err != ErrTimeout {
			t.Fatal(err)
		}
	}
	if n := recv.TrackedFlows(); n != 0 {
		t.Errorf("expired flow still tracked (%d flows)", n)
	}
	// The zombie sender gets a NACK so a live one would stop retransmitting.
	buf := make([]byte, MaxFrameSize)
	n, err := near.Receive(buf, time.Second)
	if err != nil {
		t.Fatalf("no NACK after idle expiry: %v", err)
	}
	var view FrameView
	if err := UnmarshalFrameInPlace(buf[:n], &view); err != nil {
		t.Fatal(err)
	}
	if view.Kind != KindAck || view.Decoded || view.FlowID != 3 || view.MsgID != 1 {
		t.Fatalf("expected NACK for flow 3 msg 1, got %+v", view)
	}
	recv.Close()
	if out := recv.PoolStats().Outstanding; out != 0 {
		t.Errorf("%d decoder leases leaked after idle expiry + close", out)
	}
}

// TestReceiverCloseReleasesLeases pins the drain gate the chaos soak relies
// on: closing a receiver with in-flight (undecodable) messages returns every
// decoder lease to the pool.
func TestReceiverCloseReleasesLeases(t *testing.T) {
	near, far, err := NewPipePair(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	defer far.Close()
	cfg := Config{K: 4, Seed: 71}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for flow := uint32(1); flow <= 4; flow++ {
		frames := encodeTestFrames(t, cfg, flow, 1, bytes.Repeat([]byte{byte(flow)}, 64), 8, 1)
		if _, err := recv.HandleFrame(frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := recv.TrackedMessages(); n != 4 {
		t.Fatalf("tracked %d messages, want 4", n)
	}
	if out := recv.PoolStats().Outstanding; out != 4 {
		t.Fatalf("pool reports %d outstanding leases, want 4", out)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if out := recv.PoolStats().Outstanding; out != 0 {
		t.Errorf("%d decoder leases leaked after close", out)
	}
	if n := recv.TrackedMessages(); n != 0 {
		t.Errorf("%d messages still tracked after close", n)
	}
}

// TestReceiverRejectsHostileDecodeCost pins the admission cap: a frame
// advertising parameters whose decode would run minutes per attempt (K=12
// with a maximum-length message) is rejected before any state or decoder is
// allocated, while the repository's largest legitimate shape stays admitted.
func TestReceiverRejectsHostileDecodeCost(t *testing.T) {
	near, far, err := NewPipePair(0, 23)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	defer far.Close()
	cfg := Config{K: 4, Seed: 42}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	hostile := &DataFrame{
		Version: FrameV1, FlowID: 1, MsgID: 1, MessageBits: (MaxPayload + 4) * 8,
		K: 12, C: 16, Schedule: ScheduleSequential, Seed: 42,
		Symbols: make([]complex128, 32),
	}
	buf, err := hostile.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.HandleFrame(buf); err == nil {
		t.Fatal("hostile decode-cost frame admitted")
	}
	if n := recv.TrackedMessages(); n != 0 {
		t.Errorf("rejected frame left %d tracked messages", n)
	}
	if out := recv.PoolStats().Outstanding; out != 0 {
		t.Errorf("rejected frame leaked %d decoder leases", out)
	}
	// The largest shipped shape — default K=8 with a MaxPayload message —
	// must stay under the default cap.
	legit := &DataFrame{
		Version: FrameV1, FlowID: 2, MsgID: 1, MessageBits: (MaxPayload + 4) * 8,
		K: 8, C: 10, Schedule: ScheduleStriped8, Seed: 42,
		Symbols: make([]complex128, 32),
	}
	if buf, err = legit.Marshal(); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.HandleFrame(buf); err != nil {
		t.Fatalf("legitimate max-size frame rejected: %v", err)
	}
}

// TestReceiverRejectsNonFiniteSamples pins the ingest check on sample
// values: a frame carrying one NaN or infinite coordinate is dropped with an
// error before it touches any state — it neither creates a message nor adds
// symbols to one in flight — so the message still decodes from its clean
// frames afterwards.
func TestReceiverRejectsNonFiniteSamples(t *testing.T) {
	cfg := Config{SymbolsPerFrame: 16}
	r, _ := newTestReceiver(t, cfg)
	payload := []byte("finite samples only")
	frames := encodeTestFrames(t, cfg, 3, 7, payload, cfg.SymbolsPerFrame, 3)
	poison := func(raw []byte, y complex128) []byte {
		t.Helper()
		fr, err := ParseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		df := fr.(*DataFrame)
		df.Symbols[len(df.Symbols)/2] = y
		buf, err := df.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	bad := []complex128{complex(math.NaN(), 0), complex(0, math.NaN()), complex(math.Inf(1), 0), complex(0, math.Inf(-1))}
	// A poisoned first frame must not create the message.
	for _, y := range bad {
		if _, err := r.HandleFrame(poison(frames[0], y)); err == nil {
			t.Fatalf("frame with sample %v accepted", y)
		}
	}
	if n := r.TrackedMessages(); n != 0 {
		t.Fatalf("rejected frames created %d tracked messages", n)
	}
	// Nor may a poisoned frame of a message in flight add to it.
	if _, err := r.HandleFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	before := r.FlowSymbolsReceived(3, 7)
	for _, y := range bad {
		if _, err := r.HandleFrame(poison(frames[1], y)); err == nil {
			t.Fatalf("frame with sample %v accepted mid-message", y)
		}
		if got := r.FlowSymbolsReceived(3, 7); got != before {
			t.Fatalf("rejected frame changed symbols received: %d -> %d", before, got)
		}
	}
	ds, err := r.HandleFrames(frames[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || !bytes.Equal(ds[0].Payload, payload) {
		t.Fatalf("clean frames after rejected ones delivered %+v, want %q", ds, payload)
	}
}

// TestFlowDecodeBudgetDeferral drives the budget scheduler directly: a flow
// whose ledger leads by more than the budget must be passed over (and the
// deferral counted) until the cheaper flows catch up, and the least-spent
// flow must always be schedulable.
func TestFlowDecodeBudgetDeferral(t *testing.T) {
	e := &flowEngine{budget: 100, spent: map[uint32]int64{}, flowQ: map[uint32]*flowQueue{}}
	mk := func(id uint32) *flowQueue {
		fq := &flowQueue{id: id, msgs: []*msgState{{flow: id}}, inRing: true}
		e.flowQ[id] = fq
		e.ring = append(e.ring, fq)
		return fq
	}
	hog, modest, idle := mk(1), mk(2), mk(3)
	e.spent[1] = 500 // way over budget relative to the others
	e.spent[2] = 120
	e.spent[3] = 30

	if got := e.pickLocked(); got != modest {
		t.Fatalf("picked flow %d, want the affordable flow 2", got.id)
	}
	if e.deferrals != 1 {
		t.Fatalf("deferrals = %d, want 1 (the hog skipped once)", e.deferrals)
	}
	if got := e.pickLocked(); got != idle {
		t.Fatalf("picked flow %d, want flow 3", got.id)
	}
	// Only the hog remains: the minimum is its own spend, so it schedules.
	if got := e.pickLocked(); got != hog {
		t.Fatalf("picked flow %d, want the hog once it is alone", got.id)
	}
	// Without a budget the scheduler is plain round-robin.
	e2 := &flowEngine{spent: map[uint32]int64{}, flowQ: map[uint32]*flowQueue{}}
	a := &flowQueue{id: 1}
	b := &flowQueue{id: 2}
	e2.ring = []*flowQueue{a, b}
	e2.spent[1] = 1 << 40
	if got := e2.pickLocked(); got != a {
		t.Fatalf("budgetless pick took flow %d, want head of ring", got.id)
	}
}
