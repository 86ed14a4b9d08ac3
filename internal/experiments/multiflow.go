package experiments

import (
	"bytes"
	"fmt"
	"time"

	"spinal/internal/impair"
	"spinal/internal/link"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// MultiFlowPoint summarizes one flow-count operating point of the
// flow-multiplexed link engine: many senders sharing one receiver, one
// decoder pool and one decode-worker pool.
type MultiFlowPoint struct {
	// Flows is the number of concurrent sender identities.
	Flows int
	// MessagesPerFlow is how many packets each flow transmits in sequence.
	MessagesPerFlow int
	SNRdB           float64
	// Delivered counts packets decoded within the pass budget, out of
	// Flows*MessagesPerFlow.
	Delivered int
	// Elapsed is the wall-clock time from the first frame to the last
	// delivery (or the exhaustion of the budget).
	Elapsed time.Duration
	// GoodputBitsPerSec is delivered payload bits per second of wall-clock
	// time — the aggregate serving throughput of the receiver.
	GoodputBitsPerSec float64
	// Speedup is this row's goodput over the first row's (the 1-flow
	// baseline in the default sweep): how much aggregate throughput grows
	// with flow count on the shared engine.
	Speedup float64
	// AggregateRate is delivered payload bits per coded symbol received at
	// delivery time, the spectral efficiency achieved across all flows.
	AggregateRate float64
	// Fairness is Jain's fairness index over the per-flow goodputs
	// (bits per round until the flow finished): 1.0 means every flow
	// progressed at the same rate, 1/Flows means one flow hogged the
	// receiver. The engine's round-robin scheduler should keep this near 1.
	Fairness float64
	// PoolHits and PoolMisses count decoder-pool traffic: hits are messages
	// served by a recycled decoder instead of a fresh build.
	PoolHits   uint64
	PoolMisses uint64
}

// multiFlowFrameBudget is the per-message pass budget of the comparison.
const multiFlowFrameBudget = 30

// multiFlowSymbolsPerFrame keeps frames small so flows interleave finely.
const multiFlowSymbolsPerFrame = 24

// mfMessage is one precomputed transmission: the payload and the full
// budget of noisy v1 frames, deterministic in (seed, flow, msg).
type mfMessage struct {
	payload []byte
	frames  [][]byte
}

// buildMultiFlowMessage encodes one payload exactly the way link.Sender
// does (via link.EncodeFrames) and pre-corrupts every symbol with a
// per-(flow,msg) AWGN stream, so the same frame bytes can be replayed
// against any receiver — the basis of the multi-vs-dedicated equivalence
// check.
func buildMultiFlowMessage(cfg SpinalConfig, snrDB float64, flow, msg uint32, payloadLen int) (*mfMessage, error) {
	payload := make([]byte, payloadLen)
	src := rng.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(flow+1)) ^ (0xbb67ae8584caa73b * uint64(msg+1)))
	for i := range payload {
		payload[i] = byte(src.Uint64())
	}
	radio, err := impair.NewAWGN(snrDB, rng.New(cfg.Seed^(0xa54ff53a5f1d36f1*uint64(flow+1))^uint64(msg+7)))
	if err != nil {
		return nil, err
	}
	lcfg := link.Config{K: cfg.K, C: cfg.C, Seed: cfg.Seed, Schedule: link.ScheduleStriped8}
	frames, err := link.EncodeFrames(lcfg, flow, msg, payload,
		multiFlowSymbolsPerFrame, multiFlowFrameBudget, radio.Corrupt)
	if err != nil {
		return nil, err
	}
	return &mfMessage{payload: payload, frames: frames}, nil
}

// MultiFlowComparison measures the flow-multiplexed link engine as the
// number of concurrent flows grows: each flow streams messagesPerFlow
// packets (pre-corrupted at snrDB) into one shared receiver, frames
// interleaved round-robin across flows, and the run records aggregate
// goodput, per-flow fairness and decoder-pool reuse. For every delivered
// packet the function replays the identical frame bytes through a dedicated
// single-flow receiver and errors unless the delivered payloads are
// bit-identical — the shared engine must be indistinguishable, per flow,
// from a private receiver.
func MultiFlowComparison(cfg SpinalConfig, snrDB float64, flowCounts []int, messagesPerFlow int) ([]MultiFlowPoint, error) {
	cfg = cfg.withDefaults()
	if len(flowCounts) == 0 {
		flowCounts = []int{1, 4, 16, 64}
	}
	if messagesPerFlow < 1 {
		messagesPerFlow = 2
	}
	const payloadLen = 12

	out := make([]MultiFlowPoint, 0, len(flowCounts))
	for _, flows := range flowCounts {
		if flows < 1 {
			return nil, fmt.Errorf("experiments: flow count %d invalid", flows)
		}
		pt := MultiFlowPoint{Flows: flows, MessagesPerFlow: messagesPerFlow, SNRdB: snrDB}

		// Precompute every flow's transmissions so the send loop is pure I/O.
		// Each (flow, message) encode is an independent trial seeded by its
		// indices, so the precompute shards across the sim runner.
		flat, err := sim.Run(cfg.runner(), flows*messagesPerFlow,
			func(w *sim.Worker, i int) (*mfMessage, error) {
				f, m := i/messagesPerFlow, i%messagesPerFlow
				return buildMultiFlowMessage(cfg, snrDB, uint32(f+1), uint32(m+1), payloadLen)
			})
		if err != nil {
			return nil, err
		}
		msgs := make([][]*mfMessage, flows)
		for f := 0; f < flows; f++ {
			msgs[f] = flat[f*messagesPerFlow : (f+1)*messagesPerFlow]
		}

		far, near, err := link.NewPipePair(0, cfg.Seed^uint64(flows))
		if err != nil {
			return nil, err
		}
		recv, err := link.NewReceiver(near, link.Config{K: cfg.K, C: cfg.C, BeamWidth: cfg.BeamWidth, Seed: cfg.Seed}, nil)
		if err != nil {
			far.Close()
			return nil, err
		}

		// Per-flow progress: which message is in flight and which frame of
		// it goes out next. Flows advance to their next message only after
		// the current one delivers (or its budget runs out), like a sender
		// process streaming packets.
		curMsg := make([]int, flows)
		curFrame := make([]int, flows)
		finishedRound := make([]int, flows)
		deliveredPayload := make(map[[2]uint32][]byte)
		symbolsAtDelivery := 0
		totalMessages := flows * messagesPerFlow

		start := time.Now()
		round := 0
		// flowDone marks a flow's completion round the moment its last
		// message resolves — whether during a send round or the final
		// drain — so the fairness index sees every flow's true finish.
		flowDone := func(f int) {
			if curMsg[f] >= messagesPerFlow && finishedRound[f] == 0 {
				finishedRound[f] = round + 1
			}
		}
		collect := func(d *link.Delivered) {
			key := [2]uint32{d.FlowID, d.MsgID}
			if _, dup := deliveredPayload[key]; dup {
				return
			}
			deliveredPayload[key] = append([]byte(nil), d.Payload...)
			symbolsAtDelivery += d.Symbols
			f := int(d.FlowID) - 1
			if int(d.MsgID) == curMsg[f]+1 {
				curMsg[f]++
				curFrame[f] = 0
				flowDone(f)
			}
		}
		for len(deliveredPayload) < totalMessages {
			sentAny := false
			for f := 0; f < flows; f++ {
				m := curMsg[f]
				if m >= messagesPerFlow {
					continue
				}
				mm := msgs[f][m]
				if curFrame[f] >= len(mm.frames) {
					// Budget exhausted: give up on this message, move on.
					curMsg[f]++
					curFrame[f] = 0
					flowDone(f)
					continue
				}
				if err := far.Send(mm.frames[curFrame[f]]); err != nil {
					recv.Close()
					far.Close()
					return nil, err
				}
				curFrame[f]++
				sentAny = true
			}
			// Drain whatever the engine has finished; frames queue inside
			// Receive's ingest loop at the same time.
			for {
				d, err := recv.Receive(500 * time.Microsecond)
				if err == link.ErrTimeout {
					break
				}
				if err != nil {
					recv.Close()
					far.Close()
					return nil, err
				}
				collect(d)
			}
			round++
			if !sentAny {
				// Everything is sent; wait (bounded) for the backlog.
				idle := 0
				for len(deliveredPayload) < totalMessages && idle < 200 {
					d, err := recv.Receive(5 * time.Millisecond)
					if err == link.ErrTimeout {
						idle++
						continue
					}
					if err != nil {
						recv.Close()
						far.Close()
						return nil, err
					}
					collect(d)
				}
				break
			}
		}
		pt.Elapsed = time.Since(start)
		pt.Delivered = len(deliveredPayload)
		stats := recv.PoolStats()
		pt.PoolHits, pt.PoolMisses = stats.Hits, stats.Misses
		recv.Close()
		far.Close()

		// Equivalence: replay each flow's identical frame bytes through a
		// dedicated single-flow receiver and demand bit-identical payloads.
		for f := 0; f < flows; f++ {
			if err := replayDedicated(cfg, msgs[f], uint32(f+1), deliveredPayload); err != nil {
				return nil, err
			}
		}

		deliveredBits := 0
		for _, p := range deliveredPayload {
			deliveredBits += len(p) * 8
		}
		if secs := pt.Elapsed.Seconds(); secs > 0 {
			pt.GoodputBitsPerSec = float64(deliveredBits) / secs
		}
		if symbolsAtDelivery > 0 {
			pt.AggregateRate = float64(deliveredBits) / float64(symbolsAtDelivery)
		}
		pt.Fairness = jainIndex(flowRates(finishedRound, deliveredPayload, flows, payloadLen))
		if len(out) > 0 && out[0].GoodputBitsPerSec > 0 {
			pt.Speedup = pt.GoodputBitsPerSec / out[0].GoodputBitsPerSec
		} else {
			pt.Speedup = 1
		}
		out = append(out, pt)
	}
	return out, nil
}

// replayDedicated feeds one flow's precomputed frames through a fresh
// receiver serving only that flow and checks the delivered payloads match
// the multi-flow run bit for bit. Messages the multi-flow run failed to
// deliver within budget are skipped (their equivalence is vacuous).
func replayDedicated(cfg SpinalConfig, flowMsgs []*mfMessage, flow uint32, multi map[[2]uint32][]byte) error {
	_, near, err := link.NewPipePair(0, cfg.Seed^uint64(flow)<<8)
	if err != nil {
		return err
	}
	defer near.Close()
	recv, err := link.NewReceiver(near, link.Config{K: cfg.K, C: cfg.C, BeamWidth: cfg.BeamWidth, Seed: cfg.Seed}, nil)
	if err != nil {
		return err
	}
	defer recv.Close()
	for m, mm := range flowMsgs {
		key := [2]uint32{flow, uint32(m + 1)}
		want, ok := multi[key]
		if !ok {
			continue
		}
		var got []byte
		for _, frame := range mm.frames {
			d, err := recv.HandleFrame(frame)
			if err != nil {
				return err
			}
			if d != nil {
				got = d.Payload
				break
			}
		}
		if got == nil {
			return fmt.Errorf("experiments: flow %d msg %d delivered on the shared engine but not on a dedicated receiver", flow, m+1)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("experiments: flow %d msg %d payload differs between shared and dedicated receivers", flow, m+1)
		}
	}
	return nil
}

// flowRates derives each flow's goodput proxy: delivered bits over the
// rounds it took to finish (flows that never finished use a worst-case
// denominator so they drag the index down, as they should).
func flowRates(finishedRound []int, delivered map[[2]uint32][]byte, flows, payloadLen int) []float64 {
	rates := make([]float64, flows)
	maxRound := 1
	for _, r := range finishedRound {
		if r > maxRound {
			maxRound = r
		}
	}
	for f := 0; f < flows; f++ {
		bits := 0
		for key, p := range delivered {
			if key[0] == uint32(f+1) {
				bits += len(p) * 8
			}
		}
		rounds := finishedRound[f]
		if rounds == 0 {
			rounds = maxRound + 1
		}
		rates[f] = float64(bits) / float64(rounds)
	}
	return rates
}

// jainIndex is Jain's fairness index: (Σx)² / (n·Σx²), 1.0 when all equal.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
