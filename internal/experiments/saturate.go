package experiments

import (
	"fmt"
	"time"

	"spinal/internal/link"
	"spinal/internal/sim"
)

// This file measures load-adaptive search selection under saturation: many
// flows stream pre-corrupted frames into one receiver whose decode capacity
// is deliberately scarce (few workers, a tight per-flow decode budget), once
// with every attempt running the exact search and once with AdaptiveSearch
// letting budget pressure switch flows to the approximate mode. Both runs
// replay byte-identical frames. The gate the scenario's notes state: the adaptive
// receiver should beat the all-exact aggregate goodput while keeping Jain
// fairness within 5% of it.

// SaturatePoint summarizes one receiver mode of the saturation comparison.
type SaturatePoint struct {
	// Mode is "exact" or "adaptive".
	Mode string
	// Flows and MessagesPerFlow shape the offered load; Budget is the
	// per-flow decode budget (link.Config.FlowDecodeBudget).
	Flows           int
	MessagesPerFlow int
	Budget          int64
	SNRdB           float64
	// Delivered counts packets decoded within the frame budget.
	Delivered int
	// Elapsed is first frame to last delivery (or budget exhaustion).
	Elapsed time.Duration
	// GoodputBitsPerSec is delivered payload bits per wall-clock second.
	GoodputBitsPerSec float64
	// Fairness is Jain's index over per-flow goodputs (see flowRates).
	Fairness float64
	// Deferrals counts decode-scheduler decisions that skipped an
	// over-budget flow; under adaptive search they double as the pressure
	// signal driving mode selection.
	Deferrals uint64
	// NodesSaved is the engine's estimate of tree expansions avoided by
	// approximate search (zero in exact mode).
	NodesSaved int64
	// SearchAttempts counts executed decode attempts per search mode.
	SearchAttempts map[string]uint64
}

// saturateDecodeWorkers pins the receiver's decode-worker pool so the CPU
// budget — the resource adaptive search trades rate for — is fixed and
// scarce relative to the flow count.
const saturateDecodeWorkers = 2

// SaturateComparison runs the saturation workload twice over byte-identical
// pre-corrupted frames — all-exact, then adaptive — and reports goodput,
// fairness and the engine's search counters for each.
func SaturateComparison(cfg SpinalConfig, snrDB float64, flows, messagesPerFlow int, budget int64) ([]SaturatePoint, error) {
	cfg = cfg.withDefaults()
	if flows < 1 || messagesPerFlow < 1 {
		return nil, fmt.Errorf("experiments: saturate needs at least one flow and one message, got %d/%d", flows, messagesPerFlow)
	}
	if budget < 1 {
		return nil, fmt.Errorf("experiments: saturate needs a positive decode budget, got %d", budget)
	}
	const payloadLen = 12

	// Precompute every flow's transmissions once; both receiver modes replay
	// the same bytes, so the comparison isolates the decode-side strategy.
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

	out := make([]SaturatePoint, 0, 2)
	for _, adaptive := range []bool{false, true} {
		pt, err := saturateRun(cfg, snrDB, msgs, payloadLen, budget, adaptive)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// saturateRun replays the precomputed frames through one receiver mode. The
// send loop is a round-robin: each live flow offers one frame
// per round, deliveries are drained between rounds, and a flow advances to
// its next message on delivery or budget exhaustion.
func saturateRun(cfg SpinalConfig, snrDB float64, msgs [][]*mfMessage, payloadLen int, budget int64, adaptive bool) (SaturatePoint, error) {
	flows := len(msgs)
	messagesPerFlow := len(msgs[0])
	pt := SaturatePoint{
		Mode:            "exact",
		Flows:           flows,
		MessagesPerFlow: messagesPerFlow,
		Budget:          budget,
		SNRdB:           snrDB,
	}
	if adaptive {
		pt.Mode = "adaptive"
	}

	far, near, err := link.NewPipePair(0, cfg.Seed^uint64(flows)<<1)
	if err != nil {
		return pt, err
	}
	recv, err := link.NewReceiver(near, link.Config{
		K:                cfg.K,
		C:                cfg.C,
		BeamWidth:        cfg.BeamWidth,
		Seed:             cfg.Seed,
		DecodeWorkers:    saturateDecodeWorkers,
		FlowDecodeBudget: budget,
		AdaptiveSearch:   adaptive,
	}, nil)
	if err != nil {
		far.Close()
		return pt, err
	}

	curMsg := make([]int, flows)
	curFrame := make([]int, flows)
	finishedRound := make([]int, flows)
	deliveredPayload := make(map[[2]uint32][]byte)
	totalMessages := flows * messagesPerFlow

	start := time.Now()
	round := 0
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
		f := int(d.FlowID) - 1
		if int(d.MsgID) == curMsg[f]+1 {
			curMsg[f]++
			curFrame[f] = 0
			flowDone(f)
		}
	}
	fail := func(err error) (SaturatePoint, error) {
		recv.Close()
		far.Close()
		return pt, err
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
				curMsg[f]++
				curFrame[f] = 0
				flowDone(f)
				continue
			}
			if err := far.Send(mm.frames[curFrame[f]]); err != nil {
				return fail(err)
			}
			curFrame[f]++
			sentAny = true
		}
		for {
			d, err := recv.Receive(500 * time.Microsecond)
			if err == link.ErrTimeout {
				break
			}
			if err != nil {
				return fail(err)
			}
			collect(d)
		}
		round++
		if !sentAny {
			idle := 0
			for len(deliveredPayload) < totalMessages && idle < 200 {
				d, err := recv.Receive(5 * time.Millisecond)
				if err == link.ErrTimeout {
					idle++
					continue
				}
				if err != nil {
					return fail(err)
				}
				collect(d)
			}
			break
		}
	}
	pt.Elapsed = time.Since(start)
	pt.Delivered = len(deliveredPayload)
	stats := recv.EngineStats()
	pt.Deferrals = stats.BudgetDeferrals
	pt.NodesSaved = stats.NodesSaved
	pt.SearchAttempts = stats.SearchAttempts
	recv.Close()
	far.Close()

	deliveredBits := 0
	for _, p := range deliveredPayload {
		deliveredBits += len(p) * 8
	}
	if secs := pt.Elapsed.Seconds(); secs > 0 {
		pt.GoodputBitsPerSec = float64(deliveredBits) / secs
	}
	pt.Fairness = jainIndex(flowRates(finishedRound, deliveredPayload, flows, payloadLen))
	return pt, nil
}

// SaturateColumns is the point schema of the saturation comparison. The
// load axes are reproducible; everything downstream of wall-clock
// scheduling (deliveries, goodput, fairness, the engine counters) is
// volatile.
func SaturateColumns() []sim.Column {
	return []sim.Column{
		sim.Col("mode", "%s"),
		sim.Col("flows", "%d"),
		sim.Col("msgs", "%d"),
		sim.Col("budget", "%d"),
		sim.VolatileCol("delivered", "%d"),
		sim.VolatileCol("elapsed_ms", "%.1f"),
		sim.VolatileCol("goodput_bps", "%.3g"),
		sim.VolatileCol("fairness", "%.3f"),
		sim.VolatileCol("deferrals", "%d"),
		sim.VolatileCol("nodes_saved", "%d"),
		sim.VolatileCol("attempts_exact", "%d"),
		sim.VolatileCol("attempts_approx", "%d"),
	}
}

// FormatSaturate renders the saturation comparison.
func FormatSaturate(pts []SaturatePoint) *sim.Table {
	t := sim.NewTable("", SaturateColumns()...)
	for _, p := range pts {
		t.AddRow(p.Mode, p.Flows, p.Flows*p.MessagesPerFlow, p.Budget,
			p.Delivered, float64(p.Elapsed.Microseconds())/1000,
			p.GoodputBitsPerSec, p.Fairness, p.Deferrals, p.NodesSaved,
			p.SearchAttempts["exact"], p.SearchAttempts["approx"])
	}
	return t
}
