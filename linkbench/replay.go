package main

import (
	"bytes"
	"fmt"
	"time"

	"spinal/internal/core"
	"spinal/internal/crc"
	"spinal/internal/impair"
	"spinal/internal/link"
)

// The replay pass times the layers that have no seam in the live run:
// spine encode and constellation mapping run inside (*link.Sender).Send,
// frame marshal inside Send and unmarshal inside (*link.Receiver).Receive,
// and decode on the receiver's own worker goroutines. After the traced
// phase it re-runs those calls, alone on a quiet process, on messages the
// phase delivered — the same payloads and the same symbol counts — and
// turns them into per-unit costs. The live run's counters (symbols, frames,
// nodes expanded) times these costs are the layers' attributed busy time.

// replayConfig is the code configuration a workload's messages use.
type replayConfig struct {
	k, beam, spf int
	schedule     uint8
}

// replayCase is one delivered message to replay.
type replayCase struct {
	flow, msg uint32
	payload   []byte
	symbols   int // symbols the receiver held when it decoded the message
	snr       float64
}

type replayCost struct {
	encodeNs, symbols              int64
	marshalNs, unmarshalNs, frames int64
	decodeNs, nodes, attempts      int64
}

func (c replayCost) nsPerSymbol() float64     { return ratio(c.encodeNs, c.symbols) }
func (c replayCost) marshalPerFrame() float64 { return ratio(c.marshalNs, c.frames) }
func (c replayCost) unmarshalPerFrame() float64 {
	return ratio(c.unmarshalNs, c.frames)
}
func (c replayCost) nsPerNode() float64 { return ratio(c.decodeNs, c.nodes) }

func ratio(a, b int64) float64 { return safeDiv(float64(a), float64(b)) }

// replayMin and replayMax bound the replay pass: it cycles through the
// cases until it has timed replayMin of decoding (so per-unit costs of tiny
// messages rest on many repetitions), stopping at replayMax of wall time.
const (
	replayMin = 300 * time.Millisecond
	replayMax = time.Second
)

// replay encodes, frames and decodes the cases the way the link does:
// symbols in frames of cfg.spf, one decode attempt per frame until the
// decoded message matches, through a leased decoder from a core.DecoderPool.
// A first, untimed round warms the pool and the caches.
func replay(cfg replayConfig, cases []replayCase) (replayCost, error) {
	pool := core.NewDecoderPool(4)
	defer pool.Drain()
	r := replayer{cfg: cfg, pool: pool}
	for _, rc := range cases[:min(len(cases), 8)] {
		if err := r.one(rc); err != nil {
			return replayCost{}, err
		}
	}
	r.c = replayCost{}
	start := time.Now()
	for time.Duration(r.c.decodeNs) < replayMin && time.Since(start) < replayMax {
		for _, rc := range cases {
			if err := r.one(rc); err != nil {
				return r.c, err
			}
		}
	}
	return r.c, nil
}

// replayer carries the replay pass's pool, buffers and running totals.
type replayer struct {
	cfg  replayConfig
	pool *core.DecoderPool
	c    replayCost
	buf  []byte
	view link.FrameView
}

// one replays a single delivered message.
func (r *replayer) one(rc replayCase) error {
	cfg, c := r.cfg, &r.c
	message := crc.Append32(append([]byte(nil), rc.payload...))
	params := core.Params{K: cfg.k, C: 10, MessageBits: len(message) * 8, Seed: codeSeed}
	nseg := params.NumSegments()
	var sched core.Schedule
	var err error
	if cfg.schedule == link.ScheduleStriped8 {
		sched, err = core.NewStripedSchedule(nseg, 8)
	} else {
		sched, err = core.NewSequentialSchedule(nseg)
	}
	if err != nil {
		return err
	}
	poss := make([]core.SymbolPos, rc.symbols)
	syms := make([]complex128, rc.symbols)
	t0 := time.Now()
	enc, err := core.NewEncoder(params, message)
	if err != nil {
		return err
	}
	for i := range syms {
		poss[i] = sched.Pos(i)
		syms[i] = enc.SymbolAt(poss[i])
	}
	c.encodeNs += int64(time.Since(t0))
	c.symbols += int64(len(syms))

	spec, err := impair.Parse(fmt.Sprintf("awgn(snr=%g)", rc.snr))
	if err != nil {
		return err
	}
	ch, err := spec.Build(messageSeed(codeSeed, rc.flow, rc.msg))
	if err != nil {
		return err
	}
	t0 = time.Now()
	lease, err := r.pool.Lease(params, cfg.beam)
	if err != nil {
		return err
	}
	lease.Dec.SetParallelism(1)
	c.decodeNs += int64(time.Since(t0))
	ys := make([]complex128, cfg.spf)
	decoded := false
	for start := 0; start < len(syms) && !decoded; start += cfg.spf {
		end := min(start+cfg.spf, len(syms))
		frame := link.DataFrame{Version: link.FrameV1, FlowID: rc.flow, MsgID: rc.msg,
			MessageBits: uint32(params.MessageBits), K: uint8(cfg.k), C: 10, Schedule: cfg.schedule,
			Seed: codeSeed, StartIndex: uint32(start), Symbols: syms[start:end]}
		t0 = time.Now()
		r.buf, err = frame.AppendTo(r.buf[:0])
		t1 := time.Now()
		if err == nil {
			err = link.UnmarshalFrameInPlace(r.buf, &r.view)
		}
		c.marshalNs += int64(t1.Sub(t0))
		c.unmarshalNs += int64(time.Since(t1))
		c.frames++
		if err != nil {
			lease.Release()
			return err
		}
		y := ys[:r.view.NumSymbols]
		r.view.SymbolsInto(y)
		ch.CorruptBlock(y, y)
		if err := lease.Obs.AddBatch(poss[start:end], y); err != nil {
			lease.Release()
			return err
		}
		t0 = time.Now()
		res, err := lease.Dec.Decode(lease.Obs)
		c.decodeNs += int64(time.Since(t0))
		if err != nil {
			lease.Release()
			return err
		}
		c.nodes += int64(res.NodesExpanded)
		c.attempts++
		decoded = bytes.Equal(res.Message, message)
	}
	lease.Release()
	return nil
}
