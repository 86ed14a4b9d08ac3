package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"spinal/internal/impair"
	"spinal/internal/link"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// This file is the churn-load experiment: the trace-driven workload
// generator driving the multi-flow link engine through an impairment
// pipeline plus frame-level faults. Bursty MMPP arrivals, mixed message
// sizes and flow churn stress flow admission (shedding), the decoder pool
// and ack handling at once; the clean run is the control. Frame encoding is
// sharded over the sim runner with index-seeded events, and the replay is a
// deterministic single-threaded loop over the HandleFrame path, so every
// column is bit-identical at any worker count.

// churnSymbolsPerFrame and churnFrameBudget shape each message's frame
// sequence: enough redundancy that burst loss costs retransmissions, not
// deliveries, within the budget. churnSenderWindow bounds how many messages
// the replay keeps in flight at once — arrivals beyond the window wait, so
// the receiver sees bursts of concurrent flows rather than the whole trace
// interleaved.
const (
	churnSymbolsPerFrame = 24
	churnFrameBudget     = 16
	churnSenderWindow    = 6
)

// DefaultChurnFaults is the frame-level fault schedule the impaired mode
// stacks on top of the symbol pipeline: bounded reorder, duplication, burst
// loss and occasional bit corruption (caught by the frame CRC).
const DefaultChurnFaults = "reorder=0.15,depth=6,dup=0.1,corrupt=0.05,bits=4,ge=0.03:0.4:0:1"

// ChurnConfig describes a churn-load run.
type ChurnConfig struct {
	// Spinal supplies the code parameters (K, C, BeamWidth) and base seed.
	Spinal SpinalConfig
	// Workload is the traffic trace; zero-valued fields take the scenario
	// defaults (MMPP arrivals, three size classes, on/off churn).
	Workload sim.WorkloadConfig
	// Impair is the symbol-level pipeline spec of the impaired mode.
	Impair string
	// Faults is the frame-level fault profile of the impaired mode.
	Faults string
	// MaxFlows caps the receiver's concurrently tracked flows; keeping it
	// below the workload's flow population exercises shedding.
	MaxFlows int
	// TrialWorkers is the sim.Run worker-pool size frame encoding shards
	// across; zero means GOMAXPROCS.
	TrialWorkers int
}

// ChurnPoint is one mode's outcome.
type ChurnPoint struct {
	Mode       string
	Flows      int
	Messages   int
	FramesSent int
	// Delivered counts messages recovered with payloads verified
	// bit-identical to what was sent.
	Delivered int
	// Rejected counts frames the receiver refused (CRC-corrupted by the
	// fault schedule).
	Rejected int
	// Shed is the receiver's flow-shed counter.
	Shed uint64
	// Fairness is Jain's index over per-flow delivered-to-offered bit
	// ratios.
	Fairness float64
}

// churnEvent is one precomputed message: the workload event, its payload and
// its impaired frame sequence.
type churnEvent struct {
	ev      sim.Event
	payload []byte
	frames  [][]byte
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.Spinal = c.Spinal.withDefaults()
	if c.Workload.Flows == 0 {
		c.Workload.Flows = 12
	}
	if c.Workload.Messages == 0 {
		c.Workload.Messages = 36
	}
	if c.Workload.Arrival == "" {
		c.Workload.Arrival = "mmpp"
		c.Workload.Rate = 1
		c.Workload.Burst = 6
		c.Workload.Dwell = 25
	}
	if len(c.Workload.Sizes) == 0 {
		c.Workload.Sizes = []sim.SizeClass{
			{Bytes: 16, Weight: 3},
			{Bytes: 48, Weight: 1},
			{Bytes: 96, Weight: 0.5},
		}
	}
	if c.Workload.MeanOn == 0 && c.Workload.MeanOff == 0 {
		c.Workload.MeanOn, c.Workload.MeanOff = 40, 20
	}
	if c.Workload.Seed == 0 {
		c.Workload.Seed = c.Spinal.Seed ^ 0x9159015a3070dd17
	}
	if c.Impair == "" {
		c.Impair = DefaultImpairStack
	}
	if c.Faults == "" {
		c.Faults = DefaultChurnFaults
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 8
	}
	return c
}

// ChurnLoad runs the workload through the link engine twice — clean AWGN
// with a fault-free transport, then the impairment stack plus frame faults —
// and reports delivery, shedding and fairness for both.
func ChurnLoad(cfg ChurnConfig) ([]ChurnPoint, error) {
	cfg = cfg.withDefaults()
	events, err := sim.GenerateWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		if e.Size > link.MaxPayload {
			return nil, fmt.Errorf("experiments: workload size %d exceeds link payload limit %d", e.Size, link.MaxPayload)
		}
	}

	cleanFaults := link.FaultProfile{}
	faults, err := link.ParseFaultProfile(cfg.Faults)
	if err != nil {
		return nil, err
	}

	var out []ChurnPoint
	for _, mode := range []struct {
		name   string
		spec   string
		faults link.FaultProfile
	}{
		{name: "clean", spec: "awgn(snr=18)", faults: cleanFaults},
		{name: "impaired", spec: cfg.Impair, faults: faults},
	} {
		pt, err := runChurnMode(cfg, events, mode.name, mode.spec, mode.faults)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// runChurnMode encodes every event's frames through the mode's pipeline
// (sharded, index-seeded) and replays them through one receiver behind the
// mode's fault schedule.
func runChurnMode(cfg ChurnConfig, events []sim.Event, mode, specStr string, faults link.FaultProfile) (ChurnPoint, error) {
	spec, err := impair.ParseAny(specStr)
	if err != nil {
		return ChurnPoint{}, err
	}
	scfg := cfg.Spinal
	lcfg := link.Config{K: scfg.K, C: scfg.C, Seed: scfg.Seed, Schedule: link.ScheduleStriped8}

	runner := sim.Runner{Workers: cfg.TrialWorkers}
	encoded, err := sim.Run(runner, len(events), func(w *sim.Worker, i int) (churnEvent, error) {
		ev := events[i]
		seed := ev.Seed(scfg.Seed, i)
		src := rng.New(seed)
		payload := make([]byte, ev.Size)
		src.Bytes(payload)
		pl, err := spec.Build(seed ^ 0x6a09e667f3bcc908)
		if err != nil {
			return churnEvent{}, err
		}
		frames, err := link.EncodeFrames(lcfg, ev.Flow, ev.Msg, payload,
			churnSymbolsPerFrame, churnFrameBudget, pl.Corrupt)
		if err != nil {
			return churnEvent{}, err
		}
		return churnEvent{ev: ev, payload: payload, frames: frames}, nil
	})
	if err != nil {
		return ChurnPoint{}, err
	}

	far, near, err := link.NewPipePair(0, scfg.Seed^0x3c6ef372fe94f82b)
	if err != nil {
		return ChurnPoint{}, err
	}
	defer far.Close()
	defer near.Close()
	var tr link.Transport = far
	if faults != (link.FaultProfile{}) {
		tr = link.NewFaultTransport(far, faults, link.FaultProfile{}, scfg.Seed^0x510e527fade682d1)
	}
	recv, err := link.NewReceiver(near, link.Config{
		K: scfg.K, C: scfg.C, BeamWidth: scfg.BeamWidth, Seed: scfg.Seed,
		MaxFlows: cfg.MaxFlows,
	}, nil)
	if err != nil {
		return ChurnPoint{}, err
	}
	defer recv.Close()

	pt := ChurnPoint{Mode: mode, Flows: cfg.Workload.Flows, Messages: len(events)}
	delivered := map[[2]uint32][]byte{}
	buf := make([]byte, link.MaxFrameSize)
	drainErr := error(nil)
	drain := func() {
		for drainErr == nil {
			n, err := near.Receive(buf, 0)
			if errors.Is(err, link.ErrTimeout) {
				return
			}
			if err != nil {
				drainErr = err
				return
			}
			d, err := recv.HandleFrame(buf[:n])
			if err != nil {
				// A frame the fault schedule corrupted past the CRC; the
				// engine refuses it and the sender's redundancy covers it.
				pt.Rejected++
				continue
			}
			if d != nil {
				delivered[[2]uint32{d.FlowID, d.MsgID}] = append([]byte(nil), d.Payload...)
			}
		}
	}
	// Acks flow back to the far side; discard them so the pipe never fills.
	ackBuf := make([]byte, link.MaxFrameSize)
	drainAcks := func() {
		for {
			if _, err := far.Receive(ackBuf, 0); err != nil {
				return
			}
		}
	}

	// Replay in arrival order with a bounded in-flight window: each round
	// sends the next frame of every windowed message, messages leave when
	// delivered (the sender reacting to acks) or out of budget, and the next
	// arrival takes the freed slot.
	type inflight struct{ idx, pass int }
	var window []inflight
	next := 0
	for (len(window) > 0 || next < len(encoded)) && drainErr == nil {
		for len(window) < churnSenderWindow && next < len(encoded) {
			window = append(window, inflight{idx: next})
			next++
		}
		keep := window[:0]
		for _, inf := range window {
			ce := encoded[inf.idx]
			if _, ok := delivered[[2]uint32{ce.ev.Flow, ce.ev.Msg}]; ok {
				continue
			}
			if err := tr.Send(ce.frames[inf.pass]); err != nil && !errors.Is(err, link.ErrInjected) {
				return ChurnPoint{}, err
			}
			pt.FramesSent++
			inf.pass++
			drain()
			if inf.pass < churnFrameBudget {
				keep = append(keep, inf)
			}
		}
		window = keep
		drainAcks()
	}
	drain()
	drainAcks()
	if drainErr != nil {
		return ChurnPoint{}, drainErr
	}

	// Verify and tally: every delivered payload must match what was sent.
	offered := make([]float64, cfg.Workload.Flows)
	got := make([]float64, cfg.Workload.Flows)
	for _, ce := range encoded {
		offered[ce.ev.Flow-1] += float64(len(ce.payload) * 8)
		if p, ok := delivered[[2]uint32{ce.ev.Flow, ce.ev.Msg}]; ok {
			if !bytes.Equal(p, ce.payload) {
				return ChurnPoint{}, fmt.Errorf("experiments: flow %d msg %d delivered with a corrupted payload", ce.ev.Flow, ce.ev.Msg)
			}
			pt.Delivered++
			got[ce.ev.Flow-1] += float64(len(ce.payload) * 8)
		}
	}
	ratios := make([]float64, 0, cfg.Workload.Flows)
	for f := range offered {
		if offered[f] > 0 {
			ratios = append(ratios, got[f]/offered[f])
		}
	}
	pt.Fairness = jainIndex(ratios)
	pt.Shed = recv.ShedFlows()
	return pt, nil
}
