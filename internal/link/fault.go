package link

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"spinal/internal/rng"
)

// ErrInjected is the transient transport error produced by a FaultProfile's
// ErrProb schedule. It models the recoverable hiccups a real NIC or kernel
// produces under pressure (ENOBUFS, EINTR): the operation failed but the
// transport is still usable, so hardened callers retry instead of giving up.
var ErrInjected = errors.New("link: injected transport fault")

// FaultProfile is one direction's deterministic fault schedule. Every fault
// is driven by a seeded PRNG (plus a frame counter for the stall windows), so
// two runs over the same profile and seed replay byte-identical schedules —
// chaos that reproduces. All probabilities are per frame and compose: a frame
// first passes the stall window, then burst loss (Gilbert-Elliott), then
// independent loss, then corruption, duplication and reordering.
type FaultProfile struct {
	// DropProb is independent per-frame loss.
	DropProb float64 `json:"drop,omitempty"`
	// DupProb delivers the frame twice.
	DupProb float64 `json:"dup,omitempty"`
	// ReorderProb holds the frame back so that later frames overtake it; the
	// held frame is released after at most ReorderDepth subsequent frames
	// (bounded reorder). Zero depth selects 4.
	ReorderProb  float64 `json:"reorder,omitempty"`
	ReorderDepth int     `json:"depth,omitempty"`
	// CorruptProb flips CorruptBits random bits somewhere in the frame (the
	// copy handed on, never the caller's buffer). Zero bits selects 8.
	CorruptProb float64 `json:"corrupt,omitempty"`
	CorruptBits int     `json:"bits,omitempty"`
	// GE overlays two-state Gilbert-Elliott burst loss on top of DropProb.
	GE *GilbertElliott `json:"ge,omitempty"`
	// StallEvery/StallFrames carve deterministic partition windows out of the
	// schedule: of every StallEvery frames, the first StallFrames are dropped
	// (the link is "down"), starting with the second period so a link never
	// opens stalled. Zero disables stalls.
	StallEvery  int `json:"stall_every,omitempty"`
	StallFrames int `json:"stall_frames,omitempty"`
	// ErrProb makes the transport operation itself fail with ErrInjected
	// before touching the frame — a transient I/O error, not a loss.
	ErrProb float64 `json:"err,omitempty"`
}

// enabled reports whether the profile injects anything at all.
func (p FaultProfile) enabled() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.ReorderProb > 0 || p.CorruptProb > 0 ||
		p.GE != nil || (p.StallEvery > 0 && p.StallFrames > 0) || p.ErrProb > 0
}

// ParseFaultProfile parses one direction's fault schedule from a key=value
// list
//
//	drop=0.05,dup=0.02,reorder=0.1,depth=4,corrupt=0.01,bits=8,err=0.01,
//	stall=64:8,ge=0.05:0.3:0.02:0.9
//
// (stall is every:frames; ge is good2bad:bad2good:goodloss:badloss) or, when
// the input starts with '{', from the JSON form of FaultProfile. The empty
// string is the clean profile. Both forms pass the same range checks: every
// probability in [0,1] and every count non-negative.
func ParseFaultProfile(s string) (FaultProfile, error) {
	var p FaultProfile
	trimmed := strings.TrimSpace(s)
	var err error
	if strings.HasPrefix(trimmed, "{") {
		if jerr := json.Unmarshal([]byte(trimmed), &p); jerr != nil {
			err = fmt.Errorf("link: fault profile: %v", jerr)
		}
	} else if trimmed != "" {
		err = p.parseKnobs(trimmed)
	}
	if err == nil {
		err = p.validate()
	}
	if err != nil {
		return FaultProfile{}, err
	}
	return p, nil
}

// parseKnobs reads the key=value form into p without range checks.
func (p *FaultProfile) parseKnobs(s string) error {
	probs := map[string]*float64{
		"drop": &p.DropProb, "dup": &p.DupProb, "reorder": &p.ReorderProb,
		"corrupt": &p.CorruptProb, "err": &p.ErrProb,
	}
	counts := map[string]*int{"depth": &p.ReorderDepth, "bits": &p.CorruptBits}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" {
			return fmt.Errorf("link: fault knob %q is not key=value", kv)
		}
		if dst, ok := probs[key]; ok {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("link: fault knob %s=%q is not a number", key, val)
			}
			*dst = f
			continue
		}
		if dst, ok := counts[key]; ok {
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("link: fault knob %s=%q is not a count", key, val)
			}
			*dst = n
			continue
		}
		switch key {
		case "stall":
			every, frames, ok := strings.Cut(val, ":")
			e, err1 := strconv.Atoi(strings.TrimSpace(every))
			f, err2 := strconv.Atoi(strings.TrimSpace(frames))
			if !ok || err1 != nil || err2 != nil {
				return fmt.Errorf("link: stall=%q is not every:frames", val)
			}
			p.StallEvery, p.StallFrames = e, f
		case "ge":
			fields := strings.Split(val, ":")
			if len(fields) != 4 {
				return fmt.Errorf("link: ge=%q is not good2bad:bad2good:goodloss:badloss", val)
			}
			var v [4]float64
			for i, f := range fields {
				var err error
				if v[i], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
					return fmt.Errorf("link: ge=%q is not four numbers", val)
				}
			}
			p.GE = &GilbertElliott{GoodToBad: v[0], BadToGood: v[1], GoodLoss: v[2], BadLoss: v[3]}
		default:
			return fmt.Errorf("link: unknown fault knob %q", key)
		}
	}
	return nil
}

// validate range-checks a parsed profile. The comparisons are written so
// that NaN fails them.
func (p FaultProfile) validate() error {
	names := []string{"drop", "dup", "reorder", "corrupt", "err"}
	probs := []float64{p.DropProb, p.DupProb, p.ReorderProb, p.CorruptProb, p.ErrProb}
	if g := p.GE; g != nil {
		names = append(names, "ge good2bad", "ge bad2good", "ge goodloss", "ge badloss")
		probs = append(probs, g.GoodToBad, g.BadToGood, g.GoodLoss, g.BadLoss)
	}
	for i, v := range probs {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("link: fault profile %s=%v is not a probability", names[i], v)
		}
	}
	names = []string{"depth", "bits", "stall every", "stall frames"}
	for i, n := range []int{p.ReorderDepth, p.CorruptBits, p.StallEvery, p.StallFrames} {
		if n < 0 {
			return fmt.Errorf("link: fault profile %s=%d is negative", names[i], n)
		}
	}
	return nil
}

// GilbertElliott is the classic two-state burst-loss model: the channel
// wanders between a good and a bad state with the given per-frame transition
// probabilities, and drops frames with a state-dependent probability — long
// loss bursts with loss-free stretches in between, which i.i.d. loss cannot
// produce.
type GilbertElliott struct {
	GoodToBad float64 `json:"good2bad"`
	BadToGood float64 `json:"bad2good"`
	GoodLoss  float64 `json:"goodloss"`
	BadLoss   float64 `json:"badloss"`
}

// faultLane applies one direction's schedule. All its state is guarded by
// the owning transport's mutex, so concurrent senders observe one consistent
// schedule.
type faultLane struct {
	p   FaultProfile
	src *rng.Rand
	n   uint64 // frames offered to this lane (drives the stall windows)
	bad bool   // Gilbert-Elliott state
	// held are reorder-delayed frames with their remaining overtake budget.
	held []heldFrame
	// stats is the lane's fault ledger.
	stats LaneStats
}

type heldFrame struct {
	data []byte
	addr net.Addr
	age  int
}

// LaneStats counts what one lane's schedule did — the observability half of
// deterministic chaos, so tests can assert a schedule actually fired.
type LaneStats struct {
	Frames     uint64 // frames offered to the lane
	Dropped    uint64 // lost to DropProb, GE or a stall window
	Stalled    uint64 // subset of Dropped lost to stall windows
	Corrupted  uint64
	Duplicated uint64
	Reordered  uint64
	Errors     uint64 // operations failed with ErrInjected
}

// process runs one frame through the lane's schedule and returns the frames
// to pass on right now, in order. The input is never aliased: survivors are
// copies, so callers may reuse their buffer immediately. An empty result
// means the frame was dropped or held.
func (l *faultLane) process(frame []byte, addr net.Addr) []heldFrame {
	l.n++
	l.stats.Frames++
	var out []heldFrame

	// Age the reorder holds first: frames the current one is overtaking.
	// A hold whose budget is exhausted is released ahead of the new frame,
	// bounding how far any frame can slip.
	if len(l.held) > 0 {
		kept := l.held[:0]
		for _, h := range l.held {
			h.age--
			if h.age <= 0 {
				out = append(out, h)
			} else {
				kept = append(kept, h)
			}
		}
		l.held = kept
	}

	dropped := false
	if p := l.p; p.StallEvery > 0 && p.StallFrames > 0 {
		idx := l.n - 1 // 0-based frame index in this lane
		if idx >= uint64(p.StallEvery) && idx%uint64(p.StallEvery) < uint64(p.StallFrames) {
			l.stats.Stalled++
			dropped = true
		}
	}
	if !dropped && l.p.GE != nil {
		ge := l.p.GE
		if l.bad {
			if l.src.Bernoulli(ge.BadToGood) {
				l.bad = false
			}
		} else if l.src.Bernoulli(ge.GoodToBad) {
			l.bad = true
		}
		loss := ge.GoodLoss
		if l.bad {
			loss = ge.BadLoss
		}
		dropped = l.src.Bernoulli(loss)
	}
	if !dropped && l.p.DropProb > 0 {
		dropped = l.src.Bernoulli(l.p.DropProb)
	}
	if dropped {
		l.stats.Dropped++
		return out
	}

	cp := append(make([]byte, 0, len(frame)), frame...)
	if l.p.CorruptProb > 0 && len(cp) > 0 && l.src.Bernoulli(l.p.CorruptProb) {
		bits := l.p.CorruptBits
		if bits <= 0 {
			bits = 8
		}
		for i := 0; i < bits; i++ {
			b := l.src.Intn(len(cp) * 8)
			cp[b/8] ^= 1 << (b % 8)
		}
		l.stats.Corrupted++
	}
	cur := heldFrame{data: cp, addr: addr}
	if l.p.DupProb > 0 && l.src.Bernoulli(l.p.DupProb) {
		dup := append(make([]byte, 0, len(cp)), cp...)
		out = append(out, heldFrame{data: dup, addr: addr})
		l.stats.Duplicated++
	}
	if l.p.ReorderProb > 0 && l.src.Bernoulli(l.p.ReorderProb) {
		depth := l.p.ReorderDepth
		if depth <= 0 {
			depth = 4
		}
		cur.age = depth
		l.held = append(l.held, cur)
		l.stats.Reordered++
		return out
	}
	return append(out, cur)
}

// opError reports whether the next operation on this lane fails outright.
func (l *faultLane) opError() bool {
	if l.p.ErrProb > 0 && l.src.Bernoulli(l.p.ErrProb) {
		l.stats.Errors++
		return true
	}
	return false
}

// FaultTransport wraps any Transport in a deterministic, seeded fault
// schedule: frame drop, duplication, bounded reordering, byte corruption,
// Gilbert-Elliott burst loss, periodic stalls (transient partitions) and
// injected transient I/O errors — the impairments a real link stacks below
// the frame parser, reproducible from a single seed.
//
// Faults are directional. The tx profile applies to frames this endpoint
// sends, the rx profile to frames it receives, so wrapping a sender's
// endpoint with a lossy rx lane only impairs the acks flowing back to it —
// the asymmetric ack-direction faults that expose feedback-path bugs.
//
// Construct wrappers with NewFaultTransport, which preserves the inner
// transport's capability set (PacketTransport, BatchTransport), so a wrapped
// transport drops into any code path the bare one served. All methods are
// safe for concurrent use; the schedule is serialized by one mutex, so frame
// n's fault decision is deterministic given the seed and arrival order.
type FaultTransport struct {
	inner Transport
	mu    sync.Mutex
	tx    faultLane
	rx    faultLane
	// rxq holds receive-side frames owed to the caller: duplicates and
	// released reorder holds surface on subsequent Receive calls.
	rxq []heldFrame
}

// NewFaultTransport wraps inner in the given directional fault schedules,
// deterministic in seed. The returned transport implements exactly the
// optional interfaces (PacketTransport, BatchTransport,
// BatchPacketTransport) that inner implements, so capability type-assertions
// behave as if the faults were not there.
func NewFaultTransport(inner Transport, tx, rx FaultProfile, seed uint64) Transport {
	ft := &FaultTransport{
		inner: inner,
		tx:    faultLane{p: tx, src: rng.New(seed ^ 0x7c15d6a3722f3b21)},
		rx:    faultLane{p: rx, src: rng.New(seed ^ 0x9e3779b97f4a7c15)},
	}
	pt, isPkt := inner.(PacketTransport)
	bt, isBatch := inner.(BatchTransport)
	switch {
	case isPkt && isBatch:
		return &faultBatchPacket{faultPacket{FaultTransport: ft, pt: pt}, bt}
	case isPkt:
		return &faultPacket{FaultTransport: ft, pt: pt}
	case isBatch:
		return &faultBatch{FaultTransport: ft, bt: bt}
	default:
		return ft
	}
}

// TxStats and RxStats snapshot each lane's fault ledger.
func (t *FaultTransport) TxStats() LaneStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tx.stats
}

func (t *FaultTransport) RxStats() LaneStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rx.stats
}

// Send implements Transport: the frame runs the tx schedule and every
// survivor (possibly corrupted, duplicated or an overtaken earlier frame) is
// handed to the inner transport.
func (t *FaultTransport) Send(frame []byte) error {
	return t.sendTo(frame, nil, nil)
}

// sendTo is the shared tx path; a non-nil sendOne overrides how survivors
// are transmitted (the packet wrapper directs them at a peer).
func (t *FaultTransport) sendTo(frame []byte, to net.Addr, sendOne func([]byte, net.Addr) error) error {
	t.mu.Lock()
	if t.tx.opError() {
		t.mu.Unlock()
		return ErrInjected
	}
	out := t.tx.process(frame, to)
	t.mu.Unlock()
	for _, h := range out {
		var err error
		if sendOne != nil {
			err = sendOne(h.data, h.addr)
		} else {
			err = t.inner.Send(h.data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Receive implements Transport: frames the rx schedule drops are consumed
// and the wait continues against the caller's deadline, exactly as if the
// link had lost them.
func (t *FaultTransport) Receive(buf []byte, timeout time.Duration) (int, error) {
	n, _, err := t.receiveFrom(buf, timeout, func(b []byte, d time.Duration) (int, net.Addr, error) {
		n, err := t.inner.Receive(b, d)
		return n, nil, err
	})
	return n, err
}

// receiveFrom is the shared rx path over any single-frame receive primitive.
func (t *FaultTransport) receiveFrom(buf []byte, timeout time.Duration,
	recv func([]byte, time.Duration) (int, net.Addr, error)) (int, net.Addr, error) {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		if len(t.rxq) > 0 {
			h := t.rxq[0]
			t.rxq = t.rxq[1:]
			t.mu.Unlock()
			return copy(buf, h.data), h.addr, nil
		}
		if t.rx.opError() {
			t.mu.Unlock()
			return 0, nil, ErrInjected
		}
		t.mu.Unlock()

		remaining := time.Until(deadline)
		if timeout <= 0 {
			remaining = 0
		} else if remaining < 0 {
			remaining = 0
		}
		n, from, err := recv(buf, remaining)
		if err != nil {
			return 0, nil, err
		}
		t.mu.Lock()
		out := t.rx.process(buf[:n], from)
		if len(out) == 0 {
			// Dropped or held: keep waiting for a surviving frame. Once the
			// deadline passes, remaining clamps to zero and the inner poll
			// terminates the loop with ErrTimeout when its queue drains.
			t.mu.Unlock()
			continue
		}
		first := out[0]
		t.rxq = append(t.rxq, out[1:]...)
		t.mu.Unlock()
		return copy(buf, first.data), first.addr, nil
	}
}

// Close implements Transport. Frames still held for reordering are dropped
// with the link, as a real queue drops its backlog on teardown.
func (t *FaultTransport) Close() error { return t.inner.Close() }

// faultPacket adds the PacketTransport capability to a wrapped transport.
type faultPacket struct {
	*FaultTransport
	pt PacketTransport
}

func (t *faultPacket) ReceiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error) {
	return t.receiveFrom(buf, timeout, t.pt.ReceiveFrom)
}

func (t *faultPacket) SendTo(frame []byte, to net.Addr) error {
	return t.sendTo(frame, to, func(b []byte, addr net.Addr) error {
		if addr == nil {
			return t.inner.Send(b)
		}
		return t.pt.SendTo(b, addr)
	})
}

// faultBatch adds the BatchTransport capability: batches decompose into the
// per-frame schedule, so batched and unbatched callers see the same faults
// for the same arrival order.
type faultBatch struct {
	*FaultTransport
	bt BatchTransport
}

func (t *faultBatch) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := t.Send(f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

func (t *faultBatch) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	return faultReceiveBatch(bufs, timeout, func(buf []byte, d time.Duration) (int, net.Addr, error) {
		n, err := t.Receive(buf, d)
		return n, nil, err
	}, nil)
}

// faultReceiveBatch implements the batch-receive contract (timeout bounds the
// first frame only) over a faulted single-frame receive.
func faultReceiveBatch(bufs [][]byte, timeout time.Duration,
	recv func([]byte, time.Duration) (int, net.Addr, error), addrs []net.Addr) (int, error) {
	got := 0
	for got < len(bufs) {
		to := timeout
		if got > 0 {
			to = 0
		}
		full := bufs[got][:cap(bufs[got])]
		n, from, err := recv(full, to)
		if err != nil {
			if got > 0 && (errors.Is(err, ErrTimeout) || errors.Is(err, ErrInjected)) {
				return got, nil
			}
			return got, err
		}
		bufs[got] = full[:n]
		if addrs != nil {
			addrs[got] = from
		}
		got++
	}
	return got, nil
}

// faultBatchPacket is the full capability set (UDP, or Pipe wrapped
// together with per-peer addressing).
type faultBatchPacket struct {
	faultPacket
	bt BatchTransport
}

func (t *faultBatchPacket) SendBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := t.Send(f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

func (t *faultBatchPacket) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	return faultReceiveBatch(bufs, timeout, func(buf []byte, d time.Duration) (int, net.Addr, error) {
		n, err := t.Receive(buf, d)
		return n, nil, err
	}, nil)
}

func (t *faultBatchPacket) ReceiveBatchFrom(bufs [][]byte, addrs []net.Addr, timeout time.Duration) (int, error) {
	return faultReceiveBatch(bufs, timeout, t.ReceiveFrom, addrs)
}
