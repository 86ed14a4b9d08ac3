package link

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"spinal/internal/impair"
	"spinal/internal/rng"
)

// runReceiver drains a receiver in a goroutine, collecting every delivered
// packet until stop is closed.
func runReceiver(t *testing.T, r *Receiver, stop <-chan struct{}) (<-chan Delivered, *sync.WaitGroup) {
	t.Helper()
	out := make(chan Delivered, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, err := r.Receive(20 * time.Millisecond)
			if err == ErrTimeout {
				continue
			}
			if err == ErrClosed {
				return
			}
			if err != nil {
				t.Errorf("receiver error: %v", err)
				return
			}
			out <- *d
		}
	}()
	return out, &wg
}

// waitGoroutines polls until the goroutine count falls back to want, failing
// the test if it is still above it after a generous grace period.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running after Close, want %d:\n%s", got, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLinkTransferNoiseless also checks that Close stops every goroutine the
// receiver started.
func TestLinkTransferNoiseless(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b, err := NewPipePair(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := Config{}
	sender, err := NewSender(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewReceiver(b, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	delivered, wg := runReceiver(t, receiver, stop)

	payload := []byte("spinal codes over a perfect link")
	report, err := sender.Send(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Acked {
		t.Fatal("noiseless transfer not acknowledged")
	}
	select {
	case d := <-delivered:
		if d.MsgID != 1 || !bytes.Equal(d.Payload, payload) {
			t.Fatalf("delivered wrong packet: %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never delivered to the application")
	}
	close(stop)
	a.Close()
	wg.Wait()
	receiver.Close()
	waitGoroutines(t, before)
}

func TestLinkTransferOverAWGN(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock pacing test: the sender/receiver rate depends on real-time decode latency, which the race detector's slowdown distorts")
	}
	a, b, err := NewPipePair(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := Config{SymbolsPerFrame: 32}
	sender, _ := NewSender(a, cfg)
	radio, _ := impair.NewAWGN(15, rng.New(12))
	receiver, _ := NewReceiver(b, cfg, radio)
	stop := make(chan struct{})
	delivered, wg := runReceiver(t, receiver, stop)

	payloads := [][]byte{
		[]byte("first packet over a 15 dB channel"),
		[]byte("second packet, slightly longer to vary the message size a bit"),
		bytes.Repeat([]byte{0xA5}, 200),
	}
	for i, p := range payloads {
		report, err := sender.Send(uint32(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Acked {
			t.Fatalf("packet %d not acknowledged at 15 dB", i+1)
		}
		if report.Rate <= 0 || report.Rate > 2*8 {
			t.Fatalf("packet %d reports implausible rate %v", i+1, report.Rate)
		}
	}
	got := map[uint32][]byte{}
	for range payloads {
		select {
		case d := <-delivered:
			got[d.MsgID] = d.Payload
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for deliveries")
		}
	}
	for i, p := range payloads {
		if !bytes.Equal(got[uint32(i+1)], p) {
			t.Fatalf("packet %d payload corrupted", i+1)
		}
	}
	close(stop)
	a.Close()
	wg.Wait()
	receiver.Close()
}

func TestLinkTransferWithFrameLossAndNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock pacing test: the sender/receiver rate depends on real-time decode latency, which the race detector's slowdown distorts")
	}
	// 20% frame loss in both directions plus a 10 dB channel: the rateless
	// sender just keeps going until the (possibly retransmitted) ack arrives.
	a, b, err := NewPipePair(0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := Config{SymbolsPerFrame: 24, AckPoll: time.Millisecond}
	sender, _ := NewSender(a, cfg)
	radio, _ := impair.NewAWGN(10, rng.New(14))
	receiver, _ := NewReceiver(b, cfg, radio)
	stop := make(chan struct{})
	delivered, wg := runReceiver(t, receiver, stop)

	payload := []byte("lossy link, still delivered")
	report, err := sender.Send(99, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Acked {
		t.Fatal("packet not acknowledged over the lossy link")
	}
	select {
	case d := <-delivered:
		if !bytes.Equal(d.Payload, payload) {
			t.Fatal("payload corrupted over the lossy link")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never delivered")
	}
	close(stop)
	a.Close()
	wg.Wait()
	receiver.Close()
}

func TestLinkRateTracksChannelQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock pacing test: the sender/receiver rate depends on real-time decode latency, which the race detector's slowdown distorts")
	}
	// The achieved rate at 25 dB should comfortably exceed the rate at 5 dB:
	// the whole point of a rateless link layer. The generous AckPoll paces the
	// sender so the in-memory link behaves like a link with a finite symbol
	// rate rather than an infinitely fast one, and leaves the receiver's
	// decode attempts plenty of slack even when the test machine is busy
	// running other packages' tests.
	rate := func(snrDB float64, seed uint64) float64 {
		a, b, err := NewPipePair(0, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		cfg := Config{SymbolsPerFrame: 16, AckPoll: 40 * time.Millisecond}
		sender, _ := NewSender(a, cfg)
		radio, _ := impair.NewAWGN(snrDB, rng.New(seed+1))
		receiver, _ := NewReceiver(b, cfg, radio)
		stop := make(chan struct{})
		_, wg := runReceiver(t, receiver, stop)
		defer func() {
			close(stop)
			a.Close()
			wg.Wait()
			receiver.Close()
		}()
		payload := bytes.Repeat([]byte("rate probe "), 4)
		report, err := sender.Send(7, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Acked {
			t.Fatalf("probe packet not acknowledged at %v dB", snrDB)
		}
		return report.Rate
	}
	high := rate(25, 20)
	low := rate(5, 30)
	if high <= low {
		t.Fatalf("rate at 25 dB (%v) not above rate at 5 dB (%v)", high, low)
	}
	if low <= 0 {
		t.Fatalf("rate at 5 dB should still be positive, got %v", low)
	}
}

func TestLinkGivesUpOnDeadChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock pacing test: the sender/receiver rate depends on real-time decode latency, which the race detector's slowdown distorts")
	}
	// The receiver never sees a frame (100%... well, the pipe drops nothing,
	// but the radio is hopeless: -25 dB). The sender must stop at MaxPasses
	// and report a non-acknowledged packet rather than hanging.
	a, b, err := NewPipePair(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := Config{MaxPasses: 3, SymbolsPerFrame: 16, AckPoll: 100 * time.Microsecond, FinalWait: 5 * time.Millisecond}
	sender, _ := NewSender(a, cfg)
	radio, _ := impair.NewAWGN(-25, rng.New(41))
	receiver, _ := NewReceiver(b, cfg, radio)
	stop := make(chan struct{})
	_, wg := runReceiver(t, receiver, stop)

	payload := bytes.Repeat([]byte{1, 2, 3, 4}, 16)
	report, err := sender.Send(5, payload)
	if err != nil {
		t.Fatal(err)
	}
	if report.Acked {
		t.Fatal("packet acknowledged over a -25 dB channel within 3 passes; implausible")
	}
	if report.SymbolsSent == 0 || report.FramesSent == 0 {
		t.Fatal("sender did not transmit anything")
	}
	close(stop)
	a.Close()
	wg.Wait()
	receiver.Close()
}

func TestSenderValidation(t *testing.T) {
	a, _, _ := NewPipePair(0, 50)
	defer a.Close()
	if _, err := NewSender(nil, Config{}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewSender(a, Config{K: 30}); err == nil {
		t.Error("absurd K accepted")
	}
	if _, err := NewSender(a, Config{SymbolsPerFrame: MaxSymbolsPerFrame + 1}); err == nil {
		t.Error("oversized frames accepted")
	}
	if _, err := NewSender(a, Config{Schedule: 9}); err == nil {
		t.Error("unknown schedule accepted")
	}
	s, err := NewSender(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(1, nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := s.Send(1, make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestReceiverValidation(t *testing.T) {
	_, b, _ := NewPipePair(0, 60)
	defer b.Close()
	if _, err := NewReceiver(nil, Config{}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewReceiver(b, Config{C: 1}, nil); err == nil {
		t.Error("invalid C accepted")
	}
	r, err := NewReceiver(b, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Malformed and mismatched frames must be dropped, not crash the loop.
	if _, err := r.HandleFrame([]byte{frameMagic, typeDataV1, 0}); err == nil {
		t.Error("truncated frame accepted")
	}
	evil := &DataFrame{Version: FrameV1, MsgID: 1, MessageBits: 1 << 30, K: 8, C: 10, Seed: 0, Symbols: []complex128{1}}
	buf, _ := evil.Marshal()
	if _, err := r.HandleFrame(buf); err == nil {
		t.Error("absurd message size accepted")
	}
	wrongSeed := &DataFrame{Version: FrameV1, MsgID: 1, MessageBits: 64, K: 8, C: 10, Seed: 12345, Symbols: []complex128{1}}
	buf, _ = wrongSeed.Marshal()
	if _, err := r.HandleFrame(buf); err == nil {
		t.Error("frame with foreign seed accepted")
	}
	// A hostile StartIndex must be rejected, not wrap negative on 32-bit
	// platforms and panic in the schedule's batch position fill.
	hugeStart := &DataFrame{Version: FrameV1, MsgID: 2, MessageBits: 64, K: 8, C: 10, Seed: 0,
		StartIndex: 1 << 31, Symbols: []complex128{1}}
	buf, _ = hugeStart.Marshal()
	if _, err := r.HandleFrame(buf); err == nil {
		t.Error("out-of-range start index accepted")
	}
	if got := r.FlowSymbolsReceived(0, 123); got != 0 {
		t.Errorf("FlowSymbolsReceived for unknown message = %d", got)
	}
}
