package main

import (
	"net"
	"sync"
	"time"

	"spinal/internal/channel"
	"spinal/internal/link"
)

// The receiver and sender choose their code paths by type assertion: the
// receiver's ingest on PacketTransport, BatchTransport and
// BatchPacketTransport, its impairment path on channel.BlockChannel, the
// sender's flush on BatchTransport. A wrapper that hid or invented one of
// those would make the traced run measure a different program, so each
// wrapper constructor returns a type with exactly the optional interfaces
// of what it wraps (the same scheme as link.NewFaultTransport).

// tracedTransport records every call on one transport endpoint. An endpoint
// on the receiver sends acks; any other endpoint sends data frames.
type tracedTransport struct {
	inner    link.Transport
	t        *tracer
	sendKind spanKind

	mu   sync.Mutex     // acks are sent from several decode workers at once
	view link.FrameView // parses outgoing acks; receiver side only
}

type tracedPacket struct {
	*tracedTransport
	pt link.PacketTransport
}

type tracedBatch struct {
	*tracedTransport
	bt link.BatchTransport
}

type tracedBatchPacket struct {
	tracedPacket
	bpt link.BatchPacketTransport
}

// wrapTransport traces inner. receiverSide marks the endpoint a
// link.Receiver reads from, whose sends are acks.
func wrapTransport(inner link.Transport, t *tracer, receiverSide bool) link.Transport {
	tt := &tracedTransport{inner: inner, t: t, sendKind: spanTxSend}
	if receiverSide {
		tt.sendKind = spanAckSend
	}
	// Every packet+batch transport in link (UDP, Reactor) is a
	// BatchPacketTransport, so the three cases below cover them all.
	switch inner := inner.(type) {
	case link.BatchPacketTransport:
		return &tracedBatchPacket{tracedPacket{tt, inner}, inner}
	case link.PacketTransport:
		return &tracedPacket{tt, inner}
	case link.BatchTransport:
		return &tracedBatch{tt, inner}
	default:
		return tt
	}
}

// ids names the message a frame belongs to, for span output; acks sent by
// the receiver are parsed (they are tiny), data frames inherit the sending
// driver's message.
func (w *tracedTransport) ids(frame []byte) (uint32, uint32) {
	if w.sendKind != spanAckSend {
		return 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if link.UnmarshalFrameInPlace(frame, &w.view) != nil {
		return 0, 0
	}
	return w.view.FlowID, w.view.MsgID
}

func (w *tracedTransport) Send(frame []byte) error {
	tok := w.t.begin(w.sendKind)
	err := w.inner.Send(frame)
	flow, msg := w.ids(frame)
	w.t.end(tok, okCount(err, 1), flow, msg)
	return err
}

func (w *tracedTransport) Receive(buf []byte, timeout time.Duration) (int, error) {
	tok := w.t.begin(spanTxRecv)
	n, err := w.inner.Receive(buf, timeout)
	w.t.end(tok, okCount(err, 1), 0, 0)
	return n, err
}

func (w *tracedTransport) Close() error { return w.inner.Close() }

func (w *tracedPacket) ReceiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error) {
	tok := w.t.begin(spanTxRecv)
	n, from, err := w.pt.ReceiveFrom(buf, timeout)
	w.t.end(tok, okCount(err, 1), 0, 0)
	return n, from, err
}

func (w *tracedPacket) SendTo(frame []byte, to net.Addr) error {
	tok := w.t.begin(w.sendKind)
	err := w.pt.SendTo(frame, to)
	flow, msg := w.ids(frame)
	w.t.end(tok, okCount(err, 1), flow, msg)
	return err
}

func (w *tracedBatch) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	tok := w.t.begin(spanTxRecv)
	n, err := w.bt.ReceiveBatch(bufs, timeout)
	w.t.end(tok, n, 0, 0)
	return n, err
}

func (w *tracedBatch) SendBatch(frames [][]byte) (int, error) {
	tok := w.t.begin(w.sendKind)
	n, err := w.bt.SendBatch(frames)
	w.t.end(tok, n, 0, 0)
	return n, err
}

func (w *tracedBatchPacket) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	return (&tracedBatch{w.tracedTransport, w.bpt}).ReceiveBatch(bufs, timeout)
}

func (w *tracedBatchPacket) SendBatch(frames [][]byte) (int, error) {
	return (&tracedBatch{w.tracedTransport, w.bpt}).SendBatch(frames)
}

func (w *tracedBatchPacket) ReceiveBatchFrom(bufs [][]byte, addrs []net.Addr, timeout time.Duration) (int, error) {
	tok := w.t.begin(spanTxRecv)
	n, err := w.bpt.ReceiveBatchFrom(bufs, addrs, timeout)
	w.t.end(tok, n, 0, 0)
	return n, err
}

func okCount(err error, n int) int {
	if err != nil {
		return 0
	}
	return n
}

// tracedChannel records the receiver's impairment calls.
type tracedChannel struct {
	inner channel.SymbolChannel
	t     *tracer
}

type tracedBlockChannel struct {
	tracedChannel
	blk channel.BlockChannel
}

func wrapChannel(inner channel.SymbolChannel, t *tracer) channel.SymbolChannel {
	tc := tracedChannel{inner: inner, t: t}
	if blk, ok := inner.(channel.BlockChannel); ok {
		return &tracedBlockChannel{tc, blk}
	}
	return &tc
}

func (c *tracedChannel) Corrupt(x complex128) complex128 {
	tok := c.t.begin(spanCorrupt)
	y := c.inner.Corrupt(x)
	c.t.end(tok, 1, 0, 0)
	return y
}

func (c *tracedBlockChannel) CorruptBlock(dst, src []complex128) {
	tok := c.t.begin(spanCorrupt)
	c.blk.CorruptBlock(dst, src)
	c.t.end(tok, len(src), 0, 0)
}
