package experiments

import (
	"fmt"
	"time"

	"spinal/internal/core"
	"spinal/internal/impair"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// ParallelDecodePoint summarizes the decoding work of full rateless
// transmissions at one decoder worker count. The decoded messages and the
// per-attempt node accounting are verified identical across worker counts —
// parallel decoding is bit-identical to serial by construction — so the
// sweep isolates pure wall-clock scaling.
type ParallelDecodePoint struct {
	SNRdB   float64
	Workers int
	// BeamWidth is the decoder's B for this row.
	BeamWidth int
	// Elapsed is the total wall-clock decode-side time across all trials.
	Elapsed time.Duration
	// NodesExpanded is the total number of freshly expanded tree nodes
	// across all decode attempts of all trials (identical at every worker
	// count).
	NodesExpanded int64
	// NodesPerSec is NodesExpanded (plus refreshed nodes) per second of
	// wall-clock time — the decoder's throughput in its own unit of work.
	NodesPerSec float64
	// Speedup is the baseline row's Elapsed (the first requested worker
	// count, 1 in the default sweep) divided by this row's Elapsed.
	Speedup float64
	// Delivered counts messages decoded within the pass budget.
	Delivered int
	Trials    int
}

// parallelTrial is the per-trial outcome at one decoder worker count.
type parallelTrial struct {
	decoded   []byte
	uses      int
	nodes     int64
	refreshed int64
	success   bool
}

// ParallelDecodeComparison runs the same low-SNR rateless transmissions once
// per requested worker count and reports wall-clock scaling. Message and
// channel randomness derive from the configured seed, so every worker count
// sees byte-identical symbol streams; the function errors if any two worker
// counts disagree on a decoded message, on the number of channel uses, or on
// the expanded-node accounting, which doubles as an end-to-end determinism
// check of the parallel decode engine.
//
// Trials run on the sim runner pinned to a single trial worker: this
// experiment measures how one decode scales across its decoder shards, so
// fanning trials out across CPUs would corrupt the wall-clock axis.
func ParallelDecodeComparison(cfg SpinalConfig, snrDB float64, workers []int) ([]ParallelDecodePoint, error) {
	cfg = cfg.withDefaults()
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	params, err := cfg.params()
	if err != nil {
		return nil, err
	}
	sched, err := scheduleFor(cfg, params.NumSegments())
	if err != nil {
		return nil, err
	}

	refs := make([]parallelTrial, cfg.Trials)
	out := make([]ParallelDecodePoint, 0, len(workers))
	for wi, w := range workers {
		if w < 1 {
			return nil, fmt.Errorf("experiments: worker count %d invalid", w)
		}
		pt := ParallelDecodePoint{SNRdB: snrDB, Workers: w, BeamWidth: cfg.BeamWidth, Trials: cfg.Trials}
		start := time.Now()
		trials, err := sim.Run(sim.Runner{Workers: 1, Pool: cfg.Pool}, cfg.Trials,
			func(sw *sim.Worker, trial int) (parallelTrial, error) {
				msg := core.RandomMessage(rng.New(cfg.Seed^(0x9e3779b97f4a7c15*uint64(trial+1))), cfg.MessageBits)
				radio, err := impair.NewQuantizedAWGN(snrDB, cfg.ADCBits, rng.New(cfg.Seed^(0xbb67ae8584caa73b*uint64(trial+1))))
				if err != nil {
					return parallelTrial{}, err
				}
				res, err := core.RunChannelSession(core.SessionConfig{
					Params:      params,
					BeamWidth:   cfg.BeamWidth,
					Schedule:    sched,
					MaxSymbols:  cfg.MaxPasses * params.NumSegments(),
					Parallelism: w,
					Pool:        sw.Pool(),
				}, msg, radio, core.GenieVerifier(msg, cfg.MessageBits))
				if err != nil {
					return parallelTrial{}, err
				}
				return parallelTrial{
					decoded:   append([]byte(nil), res.Decoded...),
					uses:      res.ChannelUses,
					nodes:     res.NodesExpanded,
					refreshed: res.NodesRefreshed,
					success:   res.Success,
				}, nil
			})
		if err != nil {
			return nil, err
		}
		pt.Elapsed = time.Since(start)
		var refreshed int64
		for trial, res := range trials {
			if wi == 0 {
				refs[trial] = res
			} else {
				ref := &refs[trial]
				if res.success != ref.success || res.uses != ref.uses ||
					res.nodes != ref.nodes || res.refreshed != ref.refreshed ||
					!core.EqualMessages(res.decoded, ref.decoded, cfg.MessageBits) {
					return nil, fmt.Errorf(
						"experiments: %d-worker decode diverged from %d-worker decode on trial %d",
						w, workers[0], trial)
				}
			}
			pt.NodesExpanded += res.nodes
			refreshed += res.refreshed
			if res.success {
				pt.Delivered++
			}
		}
		if secs := pt.Elapsed.Seconds(); secs > 0 {
			pt.NodesPerSec = float64(pt.NodesExpanded+refreshed) / secs
		}
		if len(out) > 0 && out[0].Elapsed > 0 && pt.Elapsed > 0 {
			pt.Speedup = out[0].Elapsed.Seconds() / pt.Elapsed.Seconds()
		} else {
			pt.Speedup = 1
		}
		out = append(out, pt)
	}
	return out, nil
}
