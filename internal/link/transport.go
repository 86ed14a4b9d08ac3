// Package link implements a rateless link-layer protocol on top of spinal
// codes — the "feedback link-layer protocol" called out as future work in §6
// of the paper. A sender streams frames of coded symbols for a packet until
// the receiver, which feeds every arriving symbol to the spinal decoder and
// checks an embedded CRC-32, acknowledges successful decoding.
//
// Frames travel over a Transport: either an in-memory pipe (for simulations
// and tests, with configurable frame loss) or UDP datagrams (so a sender and
// receiver can run as separate processes). The wireless channel itself is
// simulated at the receiver by applying a symbol-level impairment (an
// internal/impair pipeline) to the symbol payload of every received frame.
package link

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spinal/internal/rng"
)

// ErrTimeout is returned by Transport.Receive when no frame arrives within
// the requested timeout.
var ErrTimeout = errors.New("link: receive timeout")

// ErrClosed is returned when operating on a closed transport.
var ErrClosed = errors.New("link: transport closed")

// Transport moves opaque frames between the two ends of a link. Frames may be
// dropped (lossy links) but are never corrupted or reordered by the
// transport itself; symbol-level noise is modelled separately.
type Transport interface {
	// Send transmits one frame. Send is safe for concurrent use and is
	// atomic per frame: when multiple goroutines send over one transport,
	// every frame arrives whole (or is dropped whole) — frames are never
	// torn or interleaved with each other. Frames from one goroutine keep
	// their relative order; no order is defined between concurrent senders.
	Send(frame []byte) error
	// Receive waits up to timeout for one frame and copies it into buf,
	// returning the frame length. A zero timeout polls: it returns queued
	// frames immediately and ErrTimeout when none are queued, without the
	// blocking wait (the UDP transport's portable path may wait up to a
	// millisecond for the kernel; its Linux batch path polls truly
	// non-blocking). Timeout errors satisfy errors.Is(err, ErrTimeout).
	Receive(buf []byte, timeout time.Duration) (int, error)
	// Close releases the transport's resources.
	Close() error
}

// BatchTransport is implemented by transports that can move many frames per
// call, amortizing the per-frame cost (a syscall on UDP, a channel operation
// on the pipe) across a whole batch. It is an optional upgrade interface:
// callers type-assert and fall back to the one-frame methods.
type BatchTransport interface {
	Transport
	// ReceiveBatch fills up to len(bufs) frames, one frame per buffer, and
	// returns how many were received. Each bufs[i] is used to its full
	// capacity and re-sliced to the frame length on return. The timeout
	// bounds the wait for the first frame only — once at least one frame
	// is in hand the call returns with whatever else is immediately
	// available, and a zero timeout polls without blocking. ErrTimeout is
	// returned only when no frame arrived at all.
	ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error)
	// SendBatch transmits the frames in order and returns how many were
	// handed to the link; frames the link itself drops (loss, full queue)
	// count as sent, exactly as with Send. Each frame remains individually
	// atomic.
	SendBatch(frames [][]byte) (int, error)
}

// BatchPacketTransport combines batched I/O with per-peer addressing: the
// receiver reads frame bursts with their source addresses so acks can be
// directed back to the sender each frame came from.
type BatchPacketTransport interface {
	PacketTransport
	BatchTransport
	// ReceiveBatchFrom behaves like ReceiveBatch and additionally records
	// the source address of frame i in addrs[i]. addrs may be nil when the
	// caller does not need sources; otherwise len(addrs) must be at least
	// len(bufs).
	ReceiveBatchFrom(bufs [][]byte, addrs []net.Addr, timeout time.Duration) (int, error)
}

// PacketTransport is implemented by transports that can tell apart — and
// reply to — many remote peers on one local endpoint. The multi-flow
// receiver uses it to serve many concurrent senders over a single UDP
// socket: frames are read with their source address and acks are directed
// back to the specific sender they belong to. SendTo carries the same
// atomicity guarantee as Transport.Send.
type PacketTransport interface {
	Transport
	// ReceiveFrom behaves like Receive and additionally reports the source
	// address of the frame.
	ReceiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error)
	// SendTo transmits one frame to the given peer.
	SendTo(frame []byte, to net.Addr) error
}

// maxFrameSize bounds the size of a single frame on any transport.
const maxFrameSize = 4096

// MaxFrameSize is the exported frame-size bound: the capacity callers should
// give receive buffers (and what Arena buffers default to) so any frame fits.
const MaxFrameSize = maxFrameSize

// Pipe is an in-memory Transport endpoint. Frames sent on one endpoint are
// received on its peer, subject to an optional independent loss probability.
// The pair shares a bounded free list of frame buffers, so its steady state
// recycles storage instead of allocating per frame — the same discipline as
// the UDP path, which keeps in-memory soak runs representative of the wire.
type Pipe struct {
	out   chan []byte
	in    chan []byte
	pool  chan []byte
	loss  float64
	src   *rng.Rand
	mu    sync.Mutex
	close chan struct{}
	// once is shared by both endpoints: closing either endpoint closes the
	// pair, and closing both (each side tearing down independently, the
	// normal shape under chaos tests) must stay a safe no-op.
	once *sync.Once
	// rtimer is the reused blocking-receive timer (rtmu-guarded); a second
	// concurrent Receive falls back to a throwaway timer rather than wait.
	rtmu   sync.Mutex
	rtimer *time.Timer
}

// NewPipePair returns two connected in-memory transports. Frames sent in
// either direction are dropped independently with probability loss, using a
// deterministic random source derived from seed.
func NewPipePair(loss float64, seed uint64) (*Pipe, *Pipe, error) {
	if loss < 0 || loss >= 1 {
		return nil, nil, fmt.Errorf("link: loss probability %v out of [0,1)", loss)
	}
	ab := make(chan []byte, 1024)
	ba := make(chan []byte, 1024)
	pool := make(chan []byte, cap(ab)+cap(ba)+64)
	closed := make(chan struct{})
	once := new(sync.Once)
	a := &Pipe{out: ab, in: ba, pool: pool, loss: loss, src: rng.New(seed), close: closed, once: once}
	b := &Pipe{out: ba, in: ab, pool: pool, loss: loss, src: rng.New(seed + 1), close: closed, once: once}
	return a, b, nil
}

// getBuf takes a buffer from the pair's free list, allocating when empty.
func (p *Pipe) getBuf() []byte {
	select {
	case b := <-p.pool:
		return b[:0]
	default:
		return make([]byte, 0, maxFrameSize)
	}
}

// putBuf returns a buffer to the free list, letting it go to the garbage
// collector when the list is full.
func (p *Pipe) putBuf(b []byte) {
	if cap(b) < maxFrameSize {
		return
	}
	select {
	case p.pool <- b:
	default:
	}
}

// Send implements Transport. Lossy pipes drop the frame silently with the
// configured probability, exactly like a lossy radio link would. Each frame
// is copied before it is handed to the peer's queue in a single channel
// operation, so concurrent Sends never tear or interleave frames.
func (p *Pipe) Send(frame []byte) error {
	if len(frame) > maxFrameSize {
		return fmt.Errorf("link: frame of %d bytes exceeds limit %d", len(frame), maxFrameSize)
	}
	select {
	case <-p.close:
		return ErrClosed
	default:
	}
	p.mu.Lock()
	drop := p.loss > 0 && p.src.Bernoulli(p.loss)
	p.mu.Unlock()
	if drop {
		return nil
	}
	cp := append(p.getBuf(), frame...)
	select {
	case p.out <- cp:
		return nil
	case <-p.close:
		p.putBuf(cp)
		return ErrClosed
	default:
		// Queue full: behave like a saturated link and drop the frame.
		p.putBuf(cp)
		return nil
	}
}

// Receive implements Transport. A zero timeout polls: queued frames return
// immediately, an empty queue returns ErrTimeout without blocking.
func (p *Pipe) Receive(buf []byte, timeout time.Duration) (int, error) {
	// Fast path: a queued frame returns without arming a timer, which keeps
	// the loaded steady state allocation-free.
	select {
	case frame := <-p.in:
		n := copy(buf, frame)
		p.putBuf(frame)
		return n, nil
	default:
	}
	if timeout <= 0 {
		select {
		case frame := <-p.in:
			n := copy(buf, frame)
			p.putBuf(frame)
			return n, nil
		case <-p.close:
			return 0, ErrClosed
		default:
			return 0, ErrTimeout
		}
	}
	var timer <-chan time.Time
	if p.rtmu.TryLock() {
		if p.rtimer == nil {
			p.rtimer = time.NewTimer(timeout)
		} else {
			p.rtimer.Reset(timeout)
		}
		timer = p.rtimer.C
		defer func() {
			p.rtimer.Stop()
			p.rtmu.Unlock()
		}()
	} else {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case frame := <-p.in:
		n := copy(buf, frame)
		p.putBuf(frame)
		return n, nil
	case <-p.close:
		return 0, ErrClosed
	case <-timer:
		return 0, ErrTimeout
	}
}

// ReceiveBatch implements BatchTransport: the timeout applies to the first
// frame only, everything already queued behind it is drained in the same
// call.
func (p *Pipe) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	got := 0
	for got < len(bufs) {
		to := timeout
		if got > 0 {
			to = 0
		}
		full := bufs[got][:cap(bufs[got])]
		n, err := p.Receive(full, to)
		if err != nil {
			if got > 0 && errors.Is(err, ErrTimeout) {
				return got, nil
			}
			return got, err
		}
		bufs[got] = full[:n]
		got++
	}
	return got, nil
}

// SendBatch implements BatchTransport. On the in-memory pipe a batch is the
// frames sent back to back; each frame keeps Send's per-frame atomicity and
// loss behavior.
func (p *Pipe) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := p.Send(f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// Close implements Transport. Closing either endpoint closes the pair.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.close) })
	return nil
}

// UDP is a Transport over UDP datagrams, so the sender and receiver can run
// as separate processes (see cmd/spinalsend and cmd/spinalrecv). It also
// implements BatchPacketTransport: on Linux batches map to single
// recvmmsg/sendmmsg syscalls, elsewhere to a portable receive/send loop (see
// udp_batch_*.go).
type UDP struct {
	conn *net.UDPConn
	peer net.Addr
	mu   sync.Mutex

	// batch holds the platform-specific batched-I/O state (scatter-gather
	// headers and the sockaddr cache on Linux; empty elsewhere).
	batch udpBatch
}

// NewUDP opens a UDP transport bound to localAddr (e.g. "127.0.0.1:9000" or
// ":0") and directed at peerAddr. If peerAddr is empty, the peer is learned
// from the first received frame (server style).
func NewUDP(localAddr, peerAddr string) (*UDP, error) {
	pc, err := net.ListenPacket("udp", localAddr)
	if err != nil {
		return nil, fmt.Errorf("link: listen %q: %w", localAddr, err)
	}
	conn := pc.(*net.UDPConn) // a "udp" listener is always one
	u := &UDP{conn: conn}
	if peerAddr != "" {
		addr, err := net.ResolveUDPAddr("udp", peerAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("link: resolve %q: %w", peerAddr, err)
		}
		u.peer = addr
	}
	return u, nil
}

// LocalAddr returns the bound local address, useful when listening on ":0".
func (u *UDP) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// Send implements Transport.
func (u *UDP) Send(frame []byte) error {
	if len(frame) > maxFrameSize {
		return fmt.Errorf("link: frame of %d bytes exceeds limit %d", len(frame), maxFrameSize)
	}
	u.mu.Lock()
	peer := u.peer
	u.mu.Unlock()
	if peer == nil {
		return fmt.Errorf("link: peer address not yet known")
	}
	_, err := u.conn.WriteTo(frame, peer)
	return err
}

// Receive implements Transport. The peer address is learned from incoming
// frames when it was not configured explicitly. The source is read as a
// netip.AddrPort, so a receive (a sender's ack, say) allocates no address
// once the peer is known.
func (u *UDP) Receive(buf []byte, timeout time.Duration) (int, error) {
	if err := u.setReadTimeout(timeout); err != nil {
		return 0, err
	}
	n, from, err := u.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return 0, readErr(err)
	}
	u.mu.Lock()
	if u.peer == nil {
		u.peer = net.UDPAddrFromAddrPort(from)
	}
	u.mu.Unlock()
	return n, nil
}

// ReceiveFrom implements PacketTransport: one frame plus its source address,
// so a receiver serving many senders can direct each ack at the sender it
// belongs to. The first source also becomes the default Send peer when none
// was configured.
func (u *UDP) ReceiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error) {
	if err := u.setReadTimeout(timeout); err != nil {
		return 0, nil, err
	}
	n, from, err := u.conn.ReadFrom(buf)
	if err != nil {
		return 0, nil, readErr(err)
	}
	u.mu.Lock()
	if u.peer == nil {
		u.peer = from
	}
	u.mu.Unlock()
	return n, from, nil
}

// setReadTimeout arms the read deadline of a one-frame receive; a zero
// timeout polls for a millisecond.
func (u *UDP) setReadTimeout(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = time.Millisecond
	}
	return u.conn.SetReadDeadline(time.Now().Add(timeout))
}

// readErr maps a socket read deadline to ErrTimeout.
func readErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	return err
}

// ReceiveBatch implements BatchTransport.
func (u *UDP) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	return u.ReceiveBatchFrom(bufs, nil, timeout)
}

// SendTo implements PacketTransport. A single WriteTo is one datagram, so
// concurrent SendTo calls are frame-atomic like Send.
func (u *UDP) SendTo(frame []byte, to net.Addr) error {
	if len(frame) > maxFrameSize {
		return fmt.Errorf("link: frame of %d bytes exceeds limit %d", len(frame), maxFrameSize)
	}
	if to == nil {
		return fmt.Errorf("link: SendTo with nil peer address")
	}
	_, err := u.conn.WriteTo(frame, to)
	return err
}

// Close implements Transport.
func (u *UDP) Close() error { return u.conn.Close() }
