package link

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// mkBatchBufs returns n receive buffers of full frame capacity.
func mkBatchBufs(n int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, MaxFrameSize)
	}
	return bufs
}

func TestPipeBatchRoundTrip(t *testing.T) {
	a, b, err := NewPipePair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	frames := make([][]byte, 17)
	for i := range frames {
		frames[i] = []byte(fmt.Sprintf("frame-%02d-payload", i))
	}
	if n, err := a.SendBatch(frames); err != nil || n != len(frames) {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	bufs := mkBatchBufs(len(frames) + 3)
	got, err := b.ReceiveBatch(bufs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(frames) {
		t.Fatalf("received %d frames, want %d", got, len(frames))
	}
	for i := 0; i < got; i++ {
		if string(bufs[i]) != string(frames[i]) {
			t.Fatalf("frame %d = %q, want %q", i, bufs[i], frames[i])
		}
	}
}

func TestUDPBatchRoundTrip(t *testing.T) {
	recv, err := NewUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewUDP("127.0.0.1:0", recv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	frames := make([][]byte, 9)
	for i := range frames {
		frames[i] = []byte(fmt.Sprintf("udp-batch-%02d", i))
	}
	if n, err := send.SendBatch(frames); err != nil || n != len(frames) {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	bufs := mkBatchBufs(len(frames))
	addrs := make([]net.Addr, len(frames))
	total := 0
	deadline := time.Now().Add(2 * time.Second)
	seen := map[string]bool{}
	for total < len(frames) && time.Now().Before(deadline) {
		got, err := recv.ReceiveBatchFrom(bufs[total:], addrs[total:], 200*time.Millisecond)
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				continue
			}
			t.Fatal(err)
		}
		total += got
	}
	if total != len(frames) {
		t.Fatalf("received %d frames, want %d", total, len(frames))
	}
	for i := 0; i < total; i++ {
		seen[string(bufs[i])] = true
		if addrs[i] == nil {
			t.Fatalf("frame %d arrived without a source address", i)
		}
		if addrs[i].String() != send.LocalAddr().String() {
			t.Fatalf("frame %d source %v, want %v", i, addrs[i], send.LocalAddr())
		}
	}
	for _, f := range frames {
		if !seen[string(f)] {
			t.Fatalf("frame %q never arrived", f)
		}
	}

	// The receiver learned the sender as its peer: acks flow back batched.
	if n, err := recv.SendBatch([][]byte{[]byte("ack-1"), []byte("ack-2")}); err != nil || n != 2 {
		t.Fatalf("ack SendBatch = %d, %v", n, err)
	}
	ackBufs := mkBatchBufs(2)
	got := 0
	deadline = time.Now().Add(2 * time.Second)
	for got < 2 && time.Now().Before(deadline) {
		n, err := send.ReceiveBatch(ackBufs[got:], 200*time.Millisecond)
		if err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatal(err)
		}
		got += n
	}
	if got != 2 {
		t.Fatalf("sender received %d acks, want 2", got)
	}
}

// TestZeroTimeoutPollPipe pins the documented poll semantics on the pipe: a
// zero timeout returns a queued frame immediately and ErrTimeout otherwise,
// without blocking.
func TestZeroTimeoutPollPipe(t *testing.T) {
	a, b, err := NewPipePair(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	buf := make([]byte, MaxFrameSize)
	start := time.Now()
	if _, err := b.Receive(buf, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("poll on empty queue: err = %v, want ErrTimeout", err)
	}
	if n, err := b.ReceiveBatch(mkBatchBufs(4), 0); !errors.Is(err, ErrTimeout) || n != 0 {
		t.Fatalf("batch poll on empty queue: n=%d err=%v, want 0, ErrTimeout", n, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("zero-timeout poll blocked for %v", d)
	}
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	n, err := b.Receive(buf, 0)
	if err != nil || string(buf[:n]) != "queued" {
		t.Fatalf("poll with queued frame: %q, %v", buf[:n], err)
	}
}

// TestZeroTimeoutPollUDP pins the poll semantics on UDP: queued datagrams
// return, an empty socket reports ErrTimeout, and neither waits long (the
// portable path is allowed its documented ≤1ms kernel wait).
func TestZeroTimeoutPollUDP(t *testing.T) {
	recv, err := NewUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewUDP("127.0.0.1:0", recv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	buf := make([]byte, MaxFrameSize)
	start := time.Now()
	if _, err := recv.Receive(buf, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("poll on empty socket: err = %v, want ErrTimeout", err)
	}
	if n, err := recv.ReceiveBatch(mkBatchBufs(4), 0); !errors.Is(err, ErrTimeout) || n != 0 {
		t.Fatalf("batch poll on empty socket: n=%d err=%v, want 0, ErrTimeout", n, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("zero-timeout poll blocked for %v", d)
	}

	if err := send.Send([]byte("poll-me")); err != nil {
		t.Fatal(err)
	}
	// Give the kernel a beat to deliver, then poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := recv.Receive(buf, 0)
		if err == nil {
			if string(buf[:n]) != "poll-me" {
				t.Fatalf("polled frame = %q", buf[:n])
			}
			break
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queued datagram never surfaced via zero-timeout poll")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchTimeoutAppliesToFirstFrameOnly: a partial batch returns what is
// queued instead of waiting out the timeout for the rest.
func TestBatchTimeoutAppliesToFirstFrameOnly(t *testing.T) {
	a, b, err := NewPipePair(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	got, err := b.ReceiveBatch(mkBatchBufs(16), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("got %d frames, want 3", got)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("partial batch waited %v for absent frames", d)
	}
}

// TestErrTimeoutErrorsIs guards the contract that every receive path's
// timeout satisfies errors.Is(err, ErrTimeout).
func TestErrTimeoutErrorsIs(t *testing.T) {
	a, _, err := NewPipePair(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	udp, err := NewUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	buf := make([]byte, MaxFrameSize)
	checks := []struct {
		name string
		err  error
	}{
		{"pipe.Receive", func() error { _, err := a.Receive(buf, time.Millisecond); return err }()},
		{"pipe.ReceiveBatch", func() error { _, err := a.ReceiveBatch(mkBatchBufs(2), time.Millisecond); return err }()},
		{"udp.Receive", func() error { _, err := udp.Receive(buf, time.Millisecond); return err }()},
		{"udp.ReceiveFrom", func() error { _, _, err := udp.ReceiveFrom(buf, time.Millisecond); return err }()},
		{"udp.ReceiveBatch", func() error { _, err := udp.ReceiveBatch(mkBatchBufs(2), time.Millisecond); return err }()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrTimeout) {
			t.Errorf("%s: err = %v, not errors.Is ErrTimeout", c.name, c.err)
		}
	}
}
