//go:build linux && (amd64 || arm64)

package link

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// This file is the Linux fast path of the batched UDP transport: a whole
// batch of datagrams moves through one recvmmsg(2)/sendmmsg(2) syscall
// instead of one syscall per frame. It is written against the stdlib syscall
// package (the module has no external dependencies), which defines the
// syscall numbers but not wrappers, so the mmsghdr layout is declared here.
// The build is constrained to the 64-bit little-endian targets the numbers
// and struct layout were checked against; everything else takes the portable
// loop in udp_batch_portable.go.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the byte count
// the kernel writes back per message.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte // kernel struct stride is 8-byte aligned
}

// sendChunk bounds the frames handed to one sendmmsg call.
const sendChunk = 64

// udpBatch is the scatter-gather state of the fast path, reused across calls
// so the steady state performs no allocation. Receive and send sides have
// independent locks: a blocked batched receive must never stall outgoing
// acks or data.
type udpBatch struct {
	rawOnce sync.Once
	raw     syscall.RawConn
	rawErr  error

	rmu    sync.Mutex
	rmsgs  []mmsghdr
	riov   []syscall.Iovec
	rnames []byte // one syscall.SizeofSockaddrAny slot per message
	acache map[string]*net.UDPAddr
	// recvFn is recvmmsg bound to this batch once, so a receive passes
	// RawConn.Read no fresh closure. rcount and rpoll are its arguments,
	// rgot and rerr its results, all guarded by rmu.
	recvFn func(fd uintptr) bool
	rcount int
	rpoll  bool
	rgot   int
	rerr   error

	smu   sync.Mutex
	smsgs []mmsghdr
	siov  []syscall.Iovec
	sname []byte // encoded sockaddr of speer
	snlen uint32
	speer net.Addr
	// sendFn is sendmmsg bound the same way: scount is its argument, sdone
	// and serr its results, all guarded by smu.
	sendFn func(fd uintptr) bool
	scount int
	sdone  int
	serr   error
}

// rawConn returns the socket's RawConn, resolved once, and binds the batch's
// syscall callbacks.
func (u *UDP) rawConn() (syscall.RawConn, error) {
	b := &u.batch
	b.rawOnce.Do(func() {
		b.raw, b.rawErr = u.conn.SyscallConn()
		b.recvFn, b.sendFn = b.recvmmsg, b.sendmmsg
	})
	return b.raw, b.rawErr
}

// recvmmsg is RawConn.Read's callback: one non-blocking recvmmsg into the
// first rcount headers. It reports false (park until readable) only when
// nothing is queued and the call may block.
func (b *udpBatch) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&b.rmsgs[0])), uintptr(b.rcount),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.rgot = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if b.rpoll {
				b.rerr = ErrTimeout
				return true
			}
			return false // park until readable or the deadline fires
		default:
			b.rerr = errno
			return true
		}
	}
}

// sendmmsg is RawConn.Write's callback: one non-blocking sendmmsg of the
// first scount headers, parking while the socket is not writable.
func (b *udpBatch) sendmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.smsgs[0])), uintptr(b.scount),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.sdone = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // park until the socket is writable
		default:
			b.serr = errno
			return true
		}
	}
}

func (b *udpBatch) growRecv(n int) {
	if len(b.rmsgs) >= n {
		return
	}
	b.rmsgs = make([]mmsghdr, n)
	b.riov = make([]syscall.Iovec, n)
	b.rnames = make([]byte, n*syscall.SizeofSockaddrAny)
}

// ReceiveBatchFrom implements BatchPacketTransport over one recvmmsg call.
// With a positive timeout the wait for the first frame is bounded by the
// socket read deadline; a zero timeout is a true non-blocking poll
// (MSG_DONTWAIT). Either way, once any frame is ready the kernel fills as
// many of bufs as it can without further waiting.
func (u *UDP) ReceiveBatchFrom(bufs [][]byte, addrs []net.Addr, timeout time.Duration) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	raw, err := u.rawConn()
	if err != nil {
		return 0, err
	}
	b := &u.batch
	b.rmu.Lock()
	defer b.rmu.Unlock()
	b.growRecv(len(bufs))
	for i := range bufs {
		full := bufs[i][:cap(bufs[i])]
		if len(full) == 0 {
			return 0, fmt.Errorf("link: ReceiveBatch buffer %d has zero capacity", i)
		}
		bufs[i] = full
		b.riov[i] = syscall.Iovec{Base: &full[0], Len: uint64(len(full))}
		b.rmsgs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    &b.rnames[i*syscall.SizeofSockaddrAny],
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &b.riov[i],
			Iovlen:  1,
		}}
	}
	if timeout > 0 {
		if err := u.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
	} else {
		// Clear any stale deadline: an expired one would fail the raw read
		// before the closure ever polls the socket.
		if err := u.conn.SetReadDeadline(time.Time{}); err != nil {
			return 0, err
		}
	}
	b.rcount, b.rpoll, b.rgot, b.rerr = len(bufs), timeout <= 0, 0, nil
	rerr := raw.Read(b.recvFn)
	got, opErr := b.rgot, b.rerr
	if rerr != nil {
		var ne net.Error
		if errors.As(rerr, &ne) && ne.Timeout() {
			return 0, ErrTimeout
		}
		return 0, rerr
	}
	if opErr != nil {
		if opErr == ErrTimeout {
			return 0, ErrTimeout
		}
		return 0, fmt.Errorf("link: recvmmsg: %w", opErr)
	}
	for i := 0; i < got; i++ {
		n := int(b.rmsgs[i].n)
		if n > len(bufs[i]) {
			n = len(bufs[i])
		}
		bufs[i] = bufs[i][:n]
	}
	if addrs != nil || u.peerUnknown() {
		for i := 0; i < got; i++ {
			slot := b.rnames[i*syscall.SizeofSockaddrAny:]
			a := b.addrFor(slot[:b.rmsgs[i].hdr.Namelen])
			if addrs != nil {
				addrs[i] = a
			}
			if i == 0 {
				u.learnPeer(a)
			}
		}
	}
	return got, nil
}

func (u *UDP) peerUnknown() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.peer == nil
}

func (u *UDP) learnPeer(a net.Addr) {
	if a == nil {
		return
	}
	u.mu.Lock()
	if u.peer == nil {
		u.peer = a
	}
	u.mu.Unlock()
}

// addrFor interns the raw sockaddr as a *net.UDPAddr. The string-keyed map
// lookup on the hit path does not allocate, so a stable set of peers costs
// nothing per frame; the cache is reset if an address flood grows it.
func (b *udpBatch) addrFor(raw []byte) *net.UDPAddr {
	if a, ok := b.acache[string(raw)]; ok {
		return a
	}
	a := sockaddrToUDP(raw)
	if a == nil {
		return nil
	}
	if b.acache == nil || len(b.acache) > 4096 {
		b.acache = make(map[string]*net.UDPAddr)
	}
	b.acache[string(raw)] = a
	return a
}

// sockaddrToUDP decodes a raw kernel sockaddr (little-endian hosts only,
// per the build constraint).
func sockaddrToUDP(raw []byte) *net.UDPAddr {
	if len(raw) < 2 {
		return nil
	}
	switch uint16(raw[0]) | uint16(raw[1])<<8 {
	case syscall.AF_INET:
		if len(raw) < syscall.SizeofSockaddrInet4 {
			return nil
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&raw[0]))
		ip := make(net.IP, 4)
		copy(ip, sa.Addr[:])
		return &net.UDPAddr{IP: ip, Port: ntohs(sa.Port)}
	case syscall.AF_INET6:
		if len(raw) < syscall.SizeofSockaddrInet6 {
			return nil
		}
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&raw[0]))
		ip := make(net.IP, 16)
		copy(ip, sa.Addr[:])
		a := &net.UDPAddr{IP: ip, Port: ntohs(sa.Port)}
		if sa.Scope_id != 0 {
			if ifi, err := net.InterfaceByIndex(int(sa.Scope_id)); err == nil {
				a.Zone = ifi.Name
			} else {
				a.Zone = strconv.Itoa(int(sa.Scope_id))
			}
		}
		return a
	}
	return nil
}

// ntohs decodes a network-byte-order port field.
func ntohs(p uint16) int {
	b := (*[2]byte)(unsafe.Pointer(&p))
	return int(b[0])<<8 | int(b[1])
}

// htons encodes a port into a network-byte-order field.
func htons(dst *uint16, port int) {
	p := (*[2]byte)(unsafe.Pointer(dst))
	p[0] = byte(port >> 8)
	p[1] = byte(port)
}

// SendBatch implements BatchTransport: the frames go to the current peer in
// sendmmsg bursts of up to sendChunk.
func (u *UDP) SendBatch(frames [][]byte) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	u.mu.Lock()
	peer := u.peer
	u.mu.Unlock()
	if peer == nil {
		return 0, fmt.Errorf("link: peer address not yet known")
	}
	return u.sendBatchTo(frames, peer)
}

func (u *UDP) sendBatchTo(frames [][]byte, to net.Addr) (int, error) {
	raw, err := u.rawConn()
	if err != nil {
		return 0, err
	}
	b := &u.batch
	b.smu.Lock()
	defer b.smu.Unlock()
	if err := b.encodePeer(to); err != nil {
		return 0, err
	}
	if len(b.smsgs) < sendChunk {
		b.smsgs = make([]mmsghdr, sendChunk)
		b.siov = make([]syscall.Iovec, sendChunk)
	}
	sent := 0
	for sent < len(frames) {
		cnt := len(frames) - sent
		if cnt > sendChunk {
			cnt = sendChunk
		}
		for i := 0; i < cnt; i++ {
			f := frames[sent+i]
			if len(f) > maxFrameSize {
				return sent, fmt.Errorf("link: frame of %d bytes exceeds limit %d", len(f), maxFrameSize)
			}
			b.siov[i] = syscall.Iovec{}
			if len(f) > 0 {
				b.siov[i] = syscall.Iovec{Base: &f[0], Len: uint64(len(f))}
			}
			b.smsgs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    &b.sname[0],
				Namelen: b.snlen,
				Iov:     &b.siov[i],
				Iovlen:  1,
			}}
		}
		b.scount, b.sdone, b.serr = cnt, 0, nil
		werr := raw.Write(b.sendFn)
		done, opErr := b.sdone, b.serr
		if werr != nil {
			return sent, werr
		}
		if opErr != nil {
			return sent, fmt.Errorf("link: sendmmsg: %w", opErr)
		}
		if done == 0 {
			return sent, fmt.Errorf("link: sendmmsg made no progress")
		}
		sent += done
	}
	return sent, nil
}

// encodePeer caches the raw sockaddr of the destination; steady-state sends
// to an unchanged peer skip the conversion entirely.
func (b *udpBatch) encodePeer(to net.Addr) error {
	if b.speer == to && b.snlen != 0 {
		return nil
	}
	ua, ok := to.(*net.UDPAddr)
	if !ok {
		var err error
		ua, err = net.ResolveUDPAddr("udp", to.String())
		if err != nil {
			return fmt.Errorf("link: resolve peer %v: %w", to, err)
		}
	}
	if b.sname == nil {
		// Heap-allocated so the backing array is 8-byte aligned for the
		// raw-sockaddr views below.
		b.sname = make([]byte, syscall.SizeofSockaddrAny)
	}
	clear(b.sname)
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&b.sname[0]))
		sa.Family = syscall.AF_INET
		htons(&sa.Port, ua.Port)
		copy(sa.Addr[:], ip4)
		b.snlen = syscall.SizeofSockaddrInet4
	} else if ip16 := ua.IP.To16(); ip16 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&b.sname[0]))
		sa.Family = syscall.AF_INET6
		htons(&sa.Port, ua.Port)
		copy(sa.Addr[:], ip16)
		sa.Scope_id = zoneIndex(ua.Zone)
		b.snlen = syscall.SizeofSockaddrInet6
	} else {
		return fmt.Errorf("link: peer %v has no usable IP address", to)
	}
	b.speer = to
	return nil
}

// zoneIndex resolves an IPv6 zone to its interface index.
func zoneIndex(zone string) uint32 {
	if zone == "" {
		return 0
	}
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	if n, err := strconv.Atoi(zone); err == nil {
		return uint32(n)
	}
	return 0
}
