package link

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// unbatchedPipe narrows a *Pipe to the bare Transport interface so a
// receiver built over it takes the one-frame-per-call ingest path — the
// baseline the batched wire path is measured against.
type unbatchedPipe struct{ p *Pipe }

func (t unbatchedPipe) Send(frame []byte) error { return t.p.Send(frame) }
func (t unbatchedPipe) Receive(buf []byte, timeout time.Duration) (int, error) {
	return t.p.Receive(buf, timeout)
}
func (t unbatchedPipe) Close() error { return t.p.Close() }

// BenchmarkWirePath measures the steady-state socket→decoder wire path:
// retransmitted frames of a delivered message flow through ingest, the
// in-place parse and the arena-backed ack repeat, and the sender drains the
// acks. The pipe variants cover the full receiver path, batched against
// the unbatched baseline. The udp variants time 32-frame loopback bursts at
// the transport level: one Send/ReceiveFrom per frame against the
// SendBatch/ReceiveBatchFrom path (sendmmsg/recvmmsg on Linux) that the
// receiver and a flushing sender use. Run with -benchmem: pipe/unbatched,
// pipe/batch=32 and udp/batch=32 read 0 allocs/op; udp/unbatched allocates
// the source address each ReceiveFrom returns (2 allocs per frame).
func BenchmarkWirePath(b *testing.B) {
	b.Run("pipe/unbatched", func(b *testing.B) { benchPipeWirePath(b, false) })
	b.Run(fmt.Sprintf("pipe/batch=%d", ingestBatch), func(b *testing.B) { benchPipeWirePath(b, true) })
	b.Run("udp/unbatched", func(b *testing.B) { benchUDPWirePath(b, false) })
	b.Run(fmt.Sprintf("udp/batch=%d", ingestBatch), func(b *testing.B) { benchUDPWirePath(b, true) })
}

// benchUDPWirePath moves ingestBatch-frame bursts over loopback UDP, either
// one syscall per frame or through the batch calls.
func benchUDPWirePath(b *testing.B, batched bool) {
	recv, err := NewUDP("127.0.0.1:0", "")
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send, err := NewUDP("127.0.0.1:0", recv.LocalAddr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()

	frame := make([]byte, 512)
	for i := range frame {
		frame[i] = byte(i)
	}
	burst := make([][]byte, ingestBatch)
	for i := range burst {
		burst[i] = frame
	}
	bufs := mkBatchBufs(ingestBatch)
	addrs := make([]net.Addr, ingestBatch)
	sendBurst := func() error {
		if !batched {
			for _, fr := range burst {
				if err := send.Send(fr); err != nil {
					return err
				}
			}
			return nil
		}
		if n, err := send.SendBatch(burst); err != nil || n != len(burst) {
			return fmt.Errorf("SendBatch = %d, %v", n, err)
		}
		return nil
	}
	receive := func() (int, error) {
		if !batched {
			_, _, err := recv.ReceiveFrom(bufs[0], 100*time.Millisecond)
			return 1, err
		}
		for i := range bufs {
			bufs[i] = bufs[i][:cap(bufs[i])]
		}
		return recv.ReceiveBatchFrom(bufs, addrs, 100*time.Millisecond)
	}
	// moveBurst counts frames actually moved; UDP may drop under load, so a
	// timed-out remainder is resent rather than failed.
	moveBurst := func() (int, error) {
		if err := sendBurst(); err != nil {
			return 0, err
		}
		moved := 0
		for moved < len(burst) {
			got, err := receive()
			if errors.Is(err, ErrTimeout) {
				return moved, nil // dropped remainder; caller resends
			}
			if err != nil {
				return moved, err
			}
			moved += got
		}
		return moved, nil
	}
	if _, err := moveBurst(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		moved, err := moveBurst()
		if err != nil {
			b.Fatal(err)
		}
		total += moved
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "frames/s")
	}
}

func benchPipeWirePath(b *testing.B, batched bool) {
	cfg := Config{SymbolsPerFrame: 16}
	batch := 1
	if batched {
		batch = ingestBatch
	}
	far, near, err := NewPipePair(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer far.Close()
	var tr Transport = near
	if !batched {
		tr = unbatchedPipe{p: near}
	}
	r, err := NewReceiver(tr, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	frames, err := EncodeFrames(cfg, 1, 1, []byte("wire path benchmark load"), cfg.SymbolsPerFrame, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Warmup: deliver the message so every benchmarked frame hits the
	// steady-state ack-repeat path, then drain the delivery ack.
	ds, err := r.HandleFrames(frames)
	if err != nil {
		b.Fatal(err)
	}
	if len(ds) != 1 {
		b.Fatalf("warmup delivered %d packets, want 1", len(ds))
	}
	ackBuf := make([]byte, MaxFrameSize)
	if _, err := far.Receive(ackBuf, time.Second); err != nil {
		b.Fatal(err)
	}

	burst := make([][]byte, batch)
	for i := range burst {
		burst[i] = frames[0]
	}
	moveBurst := func() error {
		if batched {
			if n, err := far.SendBatch(burst); err != nil || n != batch {
				return fmt.Errorf("SendBatch = %d, %v", n, err)
			}
		} else {
			for _, fr := range burst {
				if err := far.Send(fr); err != nil {
					return err
				}
			}
		}
		for moved := 0; moved < batch; {
			got, err := r.ingest(time.Second)
			if err != nil {
				return err
			}
			r.processIngested(got)
			moved += got
		}
		for drained := 0; drained < batch; {
			if _, err := far.Receive(ackBuf, time.Second); err != nil {
				return err
			}
			drained++
		}
		return nil
	}
	if err := moveBurst(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := moveBurst(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*batch)/secs, "frames/s")
	}
}
