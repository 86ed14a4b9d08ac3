package link

import (
	"bytes"
	"testing"
	"time"
)

// newTestReceiver builds a receiver over one end of a fresh pipe pair and
// returns it with the peer endpoint (where its acks land).
func newTestReceiver(t *testing.T, cfg Config) (*Receiver, *Pipe) {
	t.Helper()
	peer, rend, err := NewPipePair(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	r, err := NewReceiver(rend, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, peer
}

// TestBatchedPathMatchesUnbatched is the end-to-end equivalence gate for the
// zero-copy wire path: the same encoded frames delivered through
// SendBatch → pipe → ReceiveBatch into arena-leased buffers must decode to
// bit-identical payloads with identical symbol counts as the reference
// frame-at-a-time path. Batching is an I/O optimization, never a semantic one.
func TestBatchedPathMatchesUnbatched(t *testing.T) {
	cfg := Config{SymbolsPerFrame: 24}
	type msg struct {
		flow, id uint32
		payload  []byte
	}
	msgs := []msg{
		{flow: 1, id: 1, payload: []byte("the quick brown fox jumps over the lazy dog")},
		{flow: 1, id: 2, payload: bytes.Repeat([]byte{0xA7}, 200)},
		{flow: 9, id: 1, payload: []byte("second flow, first message")},
	}
	// Interleave the flows' frames the way a shared link would see them.
	var frames [][]byte
	for _, m := range msgs {
		fs, err := EncodeFrames(cfg, m.flow, m.id, m.payload, cfg.SymbolsPerFrame, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fs...)
	}
	for i, j := 0, len(frames)-1; i < j; i, j = i+2, j-2 {
		frames[i], frames[j] = frames[j], frames[i]
	}

	// Reference: deterministic frame-at-a-time ingest.
	ref, _ := newTestReceiver(t, cfg)
	want, err := ref.HandleFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(msgs) {
		t.Fatalf("reference path delivered %d packets, want %d", len(want), len(msgs))
	}

	// Batched: the frames cross a pipe via SendBatch/ReceiveBatch into
	// arena-leased buffers, then feed an identical receiver.
	sendEnd, recvEnd, err := NewPipePair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sendEnd.Close()
	got, _ := newTestReceiver(t, cfg)
	arena := NewArena(MaxFrameSize, len(frames)+4)
	defer func() {
		if err := arena.Close(); err != nil {
			t.Errorf("arena leak after batched run: %v", err)
		}
	}()
	var have []Delivered
	for off := 0; off < len(frames); {
		batch := 7 // deliberately not a divisor of len(frames)
		if off+batch > len(frames) {
			batch = len(frames) - off
		}
		if n, err := sendEnd.SendBatch(frames[off : off+batch]); err != nil || n != batch {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		leases := make([]*ArenaBuf, batch)
		bufs := make([][]byte, batch)
		for i := range bufs {
			leases[i] = arena.Lease()
			bufs[i] = leases[i].Data[:cap(leases[i].Data)]
		}
		n, err := recvEnd.ReceiveBatch(bufs, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if n != batch {
			t.Fatalf("ReceiveBatch = %d, want %d", n, batch)
		}
		ds, err := got.HandleFrames(bufs[:n])
		if err != nil {
			t.Fatal(err)
		}
		have = append(have, ds...)
		for i := range leases {
			leases[i].Data = leases[i].Data[:cap(leases[i].Data)]
			leases[i].Release()
		}
		off += batch
	}

	if len(have) != len(want) {
		t.Fatalf("batched path delivered %d packets, reference %d", len(have), len(want))
	}
	for i := range want {
		w, h := want[i], have[i]
		if w.FlowID != h.FlowID || w.MsgID != h.MsgID {
			t.Fatalf("delivery %d: batched (%d,%d) vs reference (%d,%d)", i, h.FlowID, h.MsgID, w.FlowID, w.MsgID)
		}
		if !bytes.Equal(w.Payload, h.Payload) {
			t.Fatalf("delivery %d (flow %d msg %d): payloads differ", i, w.FlowID, w.MsgID)
		}
		if w.Symbols != h.Symbols {
			t.Fatalf("delivery %d (flow %d msg %d): batched used %d symbols, reference %d",
				i, w.FlowID, w.MsgID, h.Symbols, w.Symbols)
		}
	}
}

// TestSteadyStateIngestAllocs pins the steady-state ingest path —
// in-place parse, demux, schedule positions, symbol append — at zero
// allocations per frame. The pending buffer is drained between runs so the
// measurement sees the steady state, not one-time slice growth.
func TestSteadyStateIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	cfg := Config{SymbolsPerFrame: 48}
	r, _ := newTestReceiver(t, cfg)
	payload := bytes.Repeat([]byte{0x5C}, MaxPayload)
	frames, err := EncodeFrames(cfg, 4, 11, payload, cfg.SymbolsPerFrame, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) > 8 {
		frames = frames[:8]
	}
	// Warm up: create the flow/message state and grow every scratch buffer.
	for _, f := range frames {
		if _, _, err := r.addFrame(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := r.flows[4].states[11]
	st.pending.reset()

	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			if _, _, err := r.addFrame(f, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Drain as a worker would, keeping capacity, so the measurement
		// never charges for unbounded pending growth.
		st.pending.reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ingest allocated %.2f times per %d-frame batch, want 0", allocs, len(frames))
	}
}

// TestSteadyStateAckAllocs pins the ack-repeat path — a retransmitted frame
// for an already-delivered message answered straight from the done state —
// at zero allocations per frame: in-place parse, arena-leased ack marshal,
// pooled pipe buffer.
func TestSteadyStateAckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	cfg := Config{SymbolsPerFrame: 16}
	r, peer := newTestReceiver(t, cfg)
	frames, err := EncodeFrames(cfg, 2, 5, []byte("small packet, fast decode"), cfg.SymbolsPerFrame, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.HandleFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("warmup delivered %d packets, want 1", len(ds))
	}
	ackBuf := make([]byte, MaxFrameSize)
	// Drain the delivery ack so the pipe starts the measurement empty.
	if _, err := peer.Receive(ackBuf, time.Second); err != nil {
		t.Fatal(err)
	}
	retransmit := frames[0]
	// Warm the pipe's buffer pool through one full send/receive cycle.
	if _, err := r.HandleFrame(retransmit); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Receive(ackBuf, time.Second); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(500, func() {
		if _, err := r.HandleFrame(retransmit); err != nil {
			t.Fatal(err)
		}
		// Drain the repeated ack so the pipe's buffer returns to its pool.
		if _, err := peer.Receive(ackBuf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ack-repeat path allocated %.2f times per frame, want 0", allocs)
	}
}

// TestHandleFramesAllocsPerMessage pins what the deterministic HandleFrames
// path allocates per delivered message once the receiver is warm (the flow,
// its decode history, pooled decoders and recycled symbol buffers exist):
// tiny-udp's shape, K=4, B=1, 16-byte payloads, 4 passes in 48-symbol
// frames. What is left is the message state, the decode result and its
// message, the Delivered and HandleFrames' result slice.
func TestHandleFramesAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const warm, runs = 200, 100
	cfg := Config{K: 4, BeamWidth: 1, SymbolsPerFrame: 48}
	r, peer := newTestReceiver(t, cfg)
	msgs := make([][][]byte, warm+runs+1)
	payload := make([]byte, 16)
	for i := range msgs {
		payload[0], payload[1] = byte(i), byte(i>>8)
		frames, err := EncodeFrames(cfg, 3, uint32(i), payload, cfg.SymbolsPerFrame, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i] = frames
	}
	ackBuf := make([]byte, MaxFrameSize)
	next := 0
	deliver := func() {
		ds, err := r.HandleFrames(msgs[next])
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 1 {
			t.Fatalf("message %d: delivered %d packets, want 1", next, len(ds))
		}
		next++
		// Drain the acks so the pipe's buffers return to its pool.
		for {
			if _, err := peer.Receive(ackBuf, 0); err != nil {
				break
			}
		}
	}
	for next < warm {
		deliver()
	}
	allocs := testing.AllocsPerRun(runs, deliver)
	t.Logf("%.2f allocations per delivered message", allocs)
	if allocs > 6 {
		t.Fatalf("HandleFrames allocated %.2f times per delivered message, want <= 6", allocs)
	}
}

// silentTransport discards every frame and never delivers one, so a Sender
// over it runs each message to its MaxPasses bound without an ack.
type silentTransport struct{}

func (silentTransport) Send([]byte) error { return nil }
func (silentTransport) Receive([]byte, time.Duration) (int, error) {
	return 0, ErrTimeout
}
func (silentTransport) Close() error { return nil }

// TestSendAllocsPerMessage pins what Sender.Send allocates per message over
// a transport that never acks (4 passes of K=4, 16-byte messages): the
// report and the encoder with its spine. The CRC'd message buffer, the
// constellation table and the schedule are reused across messages.
func TestSendAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	cfg := Config{K: 4, SymbolsPerFrame: 48, FlushFrames: 4, MaxPasses: 4,
		AckPoll: time.Nanosecond, FinalWait: time.Nanosecond}
	s, err := NewSender(silentTransport{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	id := uint32(0)
	send := func() {
		id++
		rep, err := s.Send(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Acked || rep.SymbolsSent != 4*40 {
			t.Fatalf("message %d: acked=%v after %d symbols, want unacked after %d", id, rep.Acked, rep.SymbolsSent, 4*40)
		}
	}
	send()
	allocs := testing.AllocsPerRun(100, send)
	t.Logf("%.2f allocations per message", allocs)
	if allocs > 3 {
		t.Fatalf("Send allocated %.2f times per message, want <= 3", allocs)
	}
}
