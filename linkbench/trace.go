package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced run's recorder. Spans are taken from the
// benchmark's own code around calls into the link's public surface — the
// Send and Receive calls the load drivers make, and every method of the
// transport and impairment wrappers in wrap.go — never from inside the
// program. Each driver goroutine (a sender, the receive loop, the open-loop
// generator) locks itself to an OS thread and registers a lane, so a span's
// busy time is the thread's CPU clock across the call and a parent's self
// time is its CPU minus its children's. Calls from goroutines the program
// owns (acks sent by decode workers) land on a shared lane and count their
// wall time, which for a non-blocking send is its busy time.

// spanKind names a traced call.
type spanKind uint8

const (
	spanSend    spanKind = iota // (*link.Sender).Send
	spanReceive                 // (*link.Receiver).Receive
	spanTxSend                  // transport send of data frames
	spanTxRecv                  // transport receive
	spanAckSend                 // transport send of ack frames
	spanCorrupt                 // impairment CorruptBlock / Corrupt
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"link.sender.Send",
	"link.receiver.Receive",
	"link.transport.send",
	"link.transport.recv",
	"link.ack.send",
	"impair.CorruptBlock",
}

// span is one recorded call. Times are nanoseconds since the tracer's epoch;
// busy is CPU nanoseconds on a locked lane and wall nanoseconds elsewhere.
// Flow and msg are zero when the call served several messages (a batched
// receive) or none.
type span struct {
	id, parent uint32
	kind       spanKind
	lane       uint8
	items      int32 // frames moved, or symbols corrupted
	flow, msg  uint32
	start, end int64
	busy       int64
}

// kindAgg sums one lane's spans of one kind that started inside the
// measured window.
type kindAgg struct {
	calls, items     int64
	wall, busy, self int64 // self = busy minus the children's busy
}

type openSpan struct {
	id        uint32
	childBusy int64
}

// lane is one driver goroutine's recorder; only that goroutine touches it
// until the run ends.
type lane struct {
	idx     uint8
	role    string
	tid     int
	flow    uint32 // message the driver is working on, stamped on child spans
	msg     uint32
	open    []openSpan
	spans   []span
	agg     [numSpanKinds]kindAgg
	winCPU  [2]int64 // thread CPU when the lane first saw the window open / close
	winSeen [2]bool
	topBusy int64 // busy of top-level spans inside the window
}

type tracer struct {
	epoch            time.Time
	winStart, winEnd int64 // measured window, ns since epoch
	keep             int64 // spans stored for output; the rest are only aggregated
	stored           atomic.Int64
	nextID           atomic.Uint32
	lanes            atomic.Pointer[[]*lane] // copy-on-write, locked lanes only

	mu      sync.Mutex // guards shared, registration and retired
	shared  lane       // spans from goroutines the program owns
	retired []*lane    // lanes whose goroutine has unlocked its thread
}

// newTracer returns a tracer that stores up to keep spans for output.
func newTracer(keep int64) *tracer {
	t := &tracer{keep: keep}
	t.shared = lane{role: "program"}
	empty := []*lane{}
	t.lanes.Store(&empty)
	return t
}

// setWindow starts the tracer's clock and sets the measured window; it must
// be called before any traced call is made.
func (t *tracer) setWindow(epoch time.Time, winStart, winEnd time.Duration) {
	if t != nil {
		t.epoch, t.winStart, t.winEnd = epoch, int64(winStart), int64(winEnd)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) inWindow(ns int64) bool { return ns >= t.winStart && ns < t.winEnd }

// lockLane pins the calling goroutine to its thread and registers a lane for
// it. A nil tracer records nothing and pins nothing.
func (t *tracer) lockLane(role string) *lane {
	if t == nil {
		return nil
	}
	runtime.LockOSThread()
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.lanes.Load()
	l := &lane{idx: uint8(len(old) + len(t.retired) + 1), role: role, tid: threadID()}
	lanes := append(append([]*lane(nil), old...), l)
	t.lanes.Store(&lanes)
	return l
}

// unlockLane closes the lane's window accounting, retires it so that no
// goroutine later scheduled on the thread records into it, and unpins the
// goroutine.
func (t *tracer) unlockLane(l *lane) {
	if t == nil {
		return
	}
	t.crossWindow(l, t.now())
	t.mu.Lock()
	var lanes []*lane
	for _, o := range *t.lanes.Load() {
		if o != l {
			lanes = append(lanes, o)
		}
	}
	t.lanes.Store(&lanes)
	t.retired = append(t.retired, l)
	t.mu.Unlock()
	runtime.UnlockOSThread()
}

// setMsg stamps the message the lane's driver is about to work on.
func (l *lane) setMsg(flow, msg uint32) {
	if l != nil {
		l.flow, l.msg = flow, msg
	}
}

// crossWindow samples the lane's thread CPU the first time it runs at or
// past each window edge, so driver overhead can be scoped to the window.
func (t *tracer) crossWindow(l *lane, now int64) {
	for i, edge := range [2]int64{t.winStart, t.winEnd} {
		if !l.winSeen[i] && now >= edge {
			l.winSeen[i] = true
			l.winCPU[i] = threadCPU()
		}
	}
}

func (t *tracer) laneFor(tid int) *lane {
	for _, l := range *t.lanes.Load() {
		if l.tid == tid {
			return l
		}
	}
	return nil
}

// token is an open span handed from begin to end.
type token struct {
	l      *lane
	kind   spanKind
	id     uint32
	parent uint32
	start  int64
	cpu0   int64
}

func (t *tracer) begin(kind spanKind) token {
	if t == nil {
		return token{}
	}
	tok := token{kind: kind, id: t.nextID.Add(1), start: t.now()}
	if l := t.laneFor(threadID()); l != nil {
		t.crossWindow(l, tok.start)
		tok.l = l
		if n := len(l.open); n > 0 {
			tok.parent = l.open[n-1].id
		}
		l.open = append(l.open, openSpan{id: tok.id})
		tok.cpu0 = threadCPU()
	}
	return tok
}

// end closes a span that moved items frames (or symbols) for message
// (flow, msg); a zero id inherits the lane's current message when the span
// has a parent.
func (t *tracer) end(tok token, items int, flow, msg uint32) {
	if t == nil {
		return
	}
	endNs := t.now()
	s := span{id: tok.id, parent: tok.parent, kind: tok.kind, items: int32(items),
		flow: flow, msg: msg, start: tok.start, end: endNs}
	l := tok.l
	if l == nil {
		s.busy = endNs - tok.start
		t.mu.Lock()
		t.record(&t.shared, s, s.busy)
		t.mu.Unlock()
		return
	}
	s.busy = threadCPU() - tok.cpu0
	s.lane = l.idx
	top := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	if n := len(l.open); n > 0 {
		l.open[n-1].childBusy += s.busy
	} else if t.inWindow(s.start) {
		l.topBusy += s.busy
	}
	if s.flow == 0 && s.msg == 0 && s.parent != 0 {
		s.flow, s.msg = l.flow, l.msg
	}
	t.record(l, s, s.busy-top.childBusy)
}

func (t *tracer) record(l *lane, s span, self int64) {
	if t.inWindow(s.start) {
		a := &l.agg[s.kind]
		a.calls++
		a.items += int64(s.items)
		a.wall += s.end - s.start
		a.busy += s.busy
		a.self += self
	}
	if t.stored.Add(1) <= t.keep {
		l.spans = append(l.spans, s)
	}
}

// laneSet returns every lane, the shared one first; call after the run.
func (t *tracer) laneSet() []*lane {
	lanes := append([]*lane{&t.shared}, *t.lanes.Load()...)
	return append(lanes, t.retired...)
}

// sum adds one span kind's window aggregate over the lanes with the given
// role ("" matches every lane).
func (t *tracer) sum(kind spanKind, role string) kindAgg {
	var out kindAgg
	for _, l := range t.laneSet() {
		if role != "" && l.role != role {
			continue
		}
		a := l.agg[kind]
		out.calls += a.calls
		out.items += a.items
		out.wall += a.wall
		out.busy += a.busy
		out.self += a.self
	}
	return out
}

// driverBusy is the CPU the benchmark's own driver goroutines spent inside
// the window outside any traced call: payload generation, verification and
// the open-loop generator's pacing.
func (t *tracer) driverBusy() int64 {
	var total int64
	for _, l := range t.laneSet()[1:] {
		if l.winSeen[0] && l.winSeen[1] {
			total += l.winCPU[1] - l.winCPU[0] - l.topBusy
		}
	}
	return total
}

// writeSpans writes every stored span as tab-separated text, ordered by
// start time, and returns how many it wrote.
func (t *tracer) writeSpans(path string) (int, error) {
	var all []span
	roles := map[uint8]string{}
	for _, l := range t.laneSet() {
		all = append(all, l.spans...)
		roles[l.idx] = l.role
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tlane\tflow\tmsg\tstart_ns\tend_ns\tbusy_ns\titems")
	for _, s := range all {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.kind],
			roles[s.lane], s.flow, s.msg, s.start, s.end, s.busy, s.items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}
