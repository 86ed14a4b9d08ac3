package link

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for the flow-multiplexed link engine: many senders over one socket,
// admission control, and the equivalence of multi-flow decoding with
// dedicated single-flow receivers.

// TestReceiverServesManyFlowsOverUDP runs 16 concurrent senders — each its
// own UDP transport and flow identity, as separate spinalsend processes
// would be — against one receiver on a single UDP socket, and checks every
// payload arrives intact and tagged with its flow.
func TestReceiverServesManyFlowsOverUDP(t *testing.T) {
	const flows = 16
	server, err := NewUDP("127.0.0.1:0", "")
	if err != nil {
		t.Skipf("UDP unavailable in this environment: %v", err)
	}
	defer server.Close()
	cfg := Config{K: 4}
	recv, err := NewReceiver(server, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	got := map[uint32][]byte{}
	var gotMu sync.Mutex
	stopRecv := make(chan struct{})
	var recvWG sync.WaitGroup
	recvWG.Add(1)
	go func() {
		defer recvWG.Done()
		for {
			select {
			case <-stopRecv:
				return
			default:
			}
			d, err := recv.Receive(50 * time.Millisecond)
			if err == ErrTimeout {
				continue
			}
			if err != nil {
				// The socket is closed at the end of the test; anything else
				// is a real failure.
				select {
				case <-stopRecv:
				default:
					t.Errorf("receiver: %v", err)
				}
				return
			}
			if d.MsgID != 1 {
				t.Errorf("flow %d delivered unexpected msg %d", d.FlowID, d.MsgID)
			}
			gotMu.Lock()
			got[d.FlowID] = d.Payload
			gotMu.Unlock()
		}
	}()

	var sendWG sync.WaitGroup
	errs := make(chan error, flows)
	for f := 1; f <= flows; f++ {
		sendWG.Add(1)
		go func(flow uint32) {
			defer sendWG.Done()
			tr, err := NewUDP("127.0.0.1:0", server.LocalAddr().String())
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			scfg := cfg
			scfg.FlowID = flow
			scfg.AckPoll = 5 * time.Millisecond
			sender, err := NewSender(tr, scfg)
			if err != nil {
				errs <- err
				return
			}
			report, err := sender.Send(1, []byte(fmt.Sprintf("payload of flow %d", flow)))
			if err != nil {
				errs <- err
				return
			}
			if !report.Acked {
				errs <- fmt.Errorf("flow %d not acknowledged", flow)
			}
		}(uint32(f))
	}
	sendWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Give the receive loop a moment to surface the last deliveries.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		gotMu.Lock()
		n := len(got)
		gotMu.Unlock()
		if n == flows {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stopRecv)
	server.Close()
	recvWG.Wait()
	for f := 1; f <= flows; f++ {
		want := []byte(fmt.Sprintf("payload of flow %d", f))
		if !bytes.Equal(got[uint32(f)], want) {
			t.Fatalf("flow %d: got %q, want %q", f, got[uint32(f)], want)
		}
	}
}

// TestMultiFlowMatchesDedicatedReceiver is the equivalence check behind the
// shared engine: interleaving many flows through one receiver must deliver,
// per flow, exactly what a dedicated single-flow receiver delivers for the
// same frames — same payloads, same symbol counts.
func TestMultiFlowMatchesDedicatedReceiver(t *testing.T) {
	cfg := Config{K: 4}
	const flows = 6
	payload := func(flow uint32) []byte {
		return []byte(fmt.Sprintf("equivalence payload for flow %d, long enough to span frames", flow))
	}

	// Dedicated runs: one fresh receiver per flow, frames fed synchronously.
	dedicated := map[uint32]*Delivered{}
	for f := uint32(1); f <= flows; f++ {
		_, near, err := NewPipePair(0, 82)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := NewReceiver(near, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestStream(t, cfg, 1, payload(f))
		var d *Delivered
		for d == nil && s.next < 3*s.params.NumSegments() {
			d, err = recv.HandleFrame(s.frame(t, cfg, f, 8))
			if err != nil {
				t.Fatal(err)
			}
		}
		if d == nil {
			t.Fatalf("dedicated receiver for flow %d never delivered", f)
		}
		dedicated[f] = d
		recv.Close()
		near.Close()
	}

	// Shared run: the same frame sequences interleaved round-robin through
	// one receiver.
	_, near, err := NewPipePair(0, 83)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	streams := map[uint32]*testStream{}
	for f := uint32(1); f <= flows; f++ {
		streams[f] = newTestStream(t, cfg, 1, payload(f))
	}
	shared := map[uint32]*Delivered{}
	for round := 0; len(shared) < flows && round < 3*64; round++ {
		for f := uint32(1); f <= flows; f++ {
			if shared[f] != nil {
				continue
			}
			d, err := recv.HandleFrame(streams[f].frame(t, cfg, f, 8))
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				if d.FlowID != f {
					t.Fatalf("delivery tagged flow %d, want %d", d.FlowID, f)
				}
				shared[f] = d
			}
		}
	}

	for f := uint32(1); f <= flows; f++ {
		ded, sh := dedicated[f], shared[f]
		if sh == nil {
			t.Fatalf("shared receiver never delivered flow %d", f)
		}
		if !bytes.Equal(ded.Payload, sh.Payload) {
			t.Fatalf("flow %d: shared payload differs from dedicated", f)
		}
		if ded.Symbols != sh.Symbols {
			t.Fatalf("flow %d: shared receiver needed %d symbols, dedicated %d — decode cadence diverged",
				f, sh.Symbols, ded.Symbols)
		}
	}
	// All flows were in flight at once, so each built a decoder — but every
	// delivery must have returned its lease to the shared pool...
	if s := recv.PoolStats(); s.Idle == 0 || s.Misses > flows {
		t.Fatalf("deliveries did not repopulate the decoder pool: %+v", s)
	}
	// ...and a second wave of messages reuses them instead of rebuilding.
	s2 := newTestStream(t, cfg, 2, payload(1))
	var d2 *Delivered
	for d2 == nil && s2.next < 3*s2.params.NumSegments() {
		d2, err = recv.HandleFrame(s2.frame(t, cfg, 1, 8))
		if err != nil {
			t.Fatal(err)
		}
	}
	if d2 == nil {
		t.Fatal("second-wave message never delivered")
	}
	if s := recv.PoolStats(); s.Hits == 0 {
		t.Fatalf("second-wave message did not reuse a pooled decoder: %+v", s)
	}
}

// TestFlowAdmissionShedsOldest checks MaxFlows admission control: a new
// flow beyond the cap sheds the flow with the oldest activity, NACKs its
// undelivered messages, and the shed flow can come back later.
func TestFlowAdmissionShedsOldest(t *testing.T) {
	far, near, err := NewPipePair(0, 84)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, MaxFlows: 3}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// One undecodable frame per flow: flows 1..3 fill the table, flow 4
	// must shed flow 1 (oldest activity).
	for f := uint32(1); f <= 4; f++ {
		s := newTestStream(t, cfg, 1, []byte(fmt.Sprintf("flow %d", f)))
		if _, err := recv.HandleFrame(s.frame(t, cfg, f, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := recv.TrackedFlows(); got != 3 {
		t.Fatalf("tracking %d flows, cap is 3", got)
	}
	if recv.ShedFlows() != 1 {
		t.Fatalf("shed %d flows, want 1", recv.ShedFlows())
	}
	if recv.FlowSymbolsReceived(1, 1) != 0 {
		t.Fatal("flow 1 (oldest) was not the one shed")
	}
	if recv.FlowSymbolsReceived(4, 1) == 0 {
		t.Fatal("newest flow was not admitted")
	}

	// The shed flow's undelivered message got a NACK.
	buf := make([]byte, maxFrameSize)
	sawNack := false
	for {
		n, err := far.Receive(buf, 0)
		if err != nil {
			break
		}
		if parsed, perr := ParseFrame(buf[:n]); perr == nil {
			if ack, ok := parsed.(*AckFrame); ok && ack.FlowID == 1 && ack.MsgID == 1 && !ack.Decoded {
				sawNack = true
			}
		}
	}
	if !sawNack {
		t.Fatal("shedding flow 1 did not NACK its in-flight message")
	}

	// A shed flow is not banned: fresh frames re-admit it (shedding another).
	s1 := newTestStream(t, cfg, 1, []byte("flow 1"))
	var delivered *Delivered
	for delivered == nil && s1.next < 3*s1.params.NumSegments() {
		delivered, err = recv.HandleFrame(s1.frame(t, cfg, 1, 16))
		if err != nil {
			t.Fatal(err)
		}
	}
	if delivered == nil || delivered.FlowID != 1 {
		t.Fatal("shed flow could not be re-admitted and decoded")
	}
}

// TestPerFlowTrackedCap checks the per-flow message cap evicts within the
// flow without touching other flows.
func TestPerFlowTrackedCap(t *testing.T) {
	far, near, err := NewPipePair(0, 85)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	_ = far
	cfg := Config{K: 4, MaxTrackedPerFlow: 2}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// Flow 9 keeps a message in flight; flow 7 churns through many.
	other := newTestStream(t, cfg, 50, []byte("bystander message"))
	if _, err := recv.HandleFrame(other.frame(t, cfg, 9, 1)); err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 4; id++ {
		s := newTestStream(t, cfg, id, []byte(fmt.Sprintf("churn %d", id)))
		if _, err := recv.HandleFrame(s.frame(t, cfg, 7, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if recv.FlowSymbolsReceived(9, 50) == 0 {
		t.Fatal("per-flow cap evicted a message of a different flow")
	}
	if recv.FlowSymbolsReceived(7, 1) != 0 || recv.FlowSymbolsReceived(7, 2) != 0 {
		t.Fatal("oldest messages of the capped flow were not evicted")
	}
	if recv.FlowSymbolsReceived(7, 4) == 0 {
		t.Fatal("newest message of the capped flow missing")
	}
	if got := recv.TrackedMessages(); got != 3 {
		t.Fatalf("tracking %d messages, want 3 (2 in flow 7 + 1 in flow 9)", got)
	}
}

// TestGlobalCapEvictionKeepsCurrentFlow is a regression test: when the
// global cap evicts the only other message of the very flow a new message
// is being admitted to, the flow must stay tracked — evicting used to
// orphan it and crash the ingest path on the next bookkeeping touch.
func TestGlobalCapEvictionKeepsCurrentFlow(t *testing.T) {
	far, near, err := NewPipePair(0, 87)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, MaxTracked: 1}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s1 := newTestStream(t, cfg, 1, []byte("first message"))
	if _, err := recv.HandleFrame(s1.frame(t, cfg, 6, 1)); err != nil {
		t.Fatal(err)
	}
	// Admitting message 2 on the same flow evicts message 1 (the cap is 1)
	// and must not drop flow 6 itself.
	s2 := newTestStream(t, cfg, 2, []byte("second message"))
	if _, err := recv.HandleFrame(s2.frame(t, cfg, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if recv.TrackedFlows() != 1 || recv.FlowSymbolsReceived(6, 2) == 0 {
		t.Fatalf("flow 6 lost by global-cap eviction: flows=%d", recv.TrackedFlows())
	}
}

// TestInvalidFrameCannotShedFlows is a regression test: a structurally
// parseable but invalid frame (wrong code seed) for an unseen flow must be
// rejected before admission control runs, so it can never shed live flows.
func TestInvalidFrameCannotShedFlows(t *testing.T) {
	far, near, err := NewPipePair(0, 88)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	cfg := Config{K: 4, MaxFlows: 2}
	recv, err := NewReceiver(near, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	for f := uint32(1); f <= 2; f++ {
		s := newTestStream(t, cfg, 1, []byte("legit"))
		if _, err := recv.HandleFrame(s.frame(t, cfg, f, 1)); err != nil {
			t.Fatal(err)
		}
	}
	evil := &DataFrame{Version: FrameV1, FlowID: 99, MsgID: 1, MessageBits: 64,
		K: 4, C: 10, Seed: 12345, Symbols: []complex128{1}}
	buf, err := evil.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.HandleFrame(buf); err == nil {
		t.Fatal("frame with a foreign seed accepted")
	}
	if recv.ShedFlows() != 0 || recv.TrackedFlows() != 2 {
		t.Fatalf("invalid frame disturbed admission state: shed=%d flows=%d",
			recv.ShedFlows(), recv.TrackedFlows())
	}
}

// TestSenderStopsOnNack checks the sender's reaction to a negative ack: it
// stops retransmitting and reports Shed.
func TestSenderStopsOnNack(t *testing.T) {
	a, b, err := NewPipePair(0, 86)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := Config{K: 4, FlowID: 5, AckPoll: 5 * time.Millisecond, MaxPasses: 50}
	sender, err := NewSender(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A fake receiver that NACKs the first data frame it sees.
	go func() {
		buf := make([]byte, maxFrameSize)
		for {
			n, err := b.Receive(buf, time.Second)
			if err != nil {
				return
			}
			parsed, perr := ParseFrame(buf[:n])
			if perr != nil {
				continue
			}
			if data, ok := parsed.(*DataFrame); ok {
				nack := &AckFrame{FlowID: data.FlowID, MsgID: data.MsgID, Decoded: false}
				if b.Send(nack.Marshal()) != nil {
					return
				}
				return
			}
		}
	}()
	report, err := sender.Send(1, []byte("to be shed"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Acked {
		t.Fatal("NACKed transmission reported as acknowledged")
	}
	if !report.Shed {
		t.Fatal("sender did not report the flow as shed")
	}
	if report.FramesSent >= 50 {
		t.Fatalf("sender kept transmitting after the NACK (%d frames)", report.FramesSent)
	}
}
