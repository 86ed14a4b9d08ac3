package experiments

import (
	"spinal/internal/impair"
	"spinal/internal/link"
	"spinal/internal/rng"
)

// Helpers shared by the multi-flow link scenarios (saturate, chaossoak):
// precomputed per-(flow, message) transmissions and the per-flow fairness
// measures.

// multiFlowFrameBudget is the per-message pass budget of a precomputed
// transmission.
const multiFlowFrameBudget = 30

// multiFlowSymbolsPerFrame keeps frames small so flows interleave finely.
const multiFlowSymbolsPerFrame = 24

// mfMessage is one precomputed transmission: the payload and the full
// budget of noisy frames, deterministic in (seed, flow, msg).
type mfMessage struct {
	payload []byte
	frames  [][]byte
}

// buildMultiFlowMessage encodes one payload exactly the way link.Sender
// does (via link.EncodeFrames) and pre-corrupts every symbol with a
// per-(flow,msg) AWGN stream, so the same frame bytes can be replayed
// against any receiver.
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
