package experiments

import (
	"spinal/internal/core"
	"spinal/internal/sim"
)

// This file measures the rate/work trade of the approximate search: the
// same rateless transmissions run once per mode — exact and approx — on
// identical per-trial message and noise streams, so any rate difference is
// attributable to the search strategy alone. The headline claim (the
// frontier scenario's gate) is that approx delivers exactly the messages
// exact delivers while expanding <=40% of the exact node count at the
// default operating point.

// frontierModes are the search strategies the comparison sweeps, exact
// first (the approx points report ratios against it).
var frontierModes = []core.SearchMode{core.SearchExact, core.SearchApprox}

// FrontierPoint is one (SNR, search mode) cell of the comparison.
type FrontierPoint struct {
	SNRdB float64
	// Mode is the search strategy's CLI spelling.
	Mode string
	// Rate is the aggregate achieved rate in bits per symbol (total
	// delivered message bits over total channel uses, failures included).
	Rate float64
	// RateVsExact is Rate divided by the exact mode's Rate at this SNR
	// (1.0 for the exact row, 0 if exact delivered nothing).
	RateVsExact float64
	// Nodes is the total number of freshly expanded decoding-tree nodes
	// across all decode attempts of all trials.
	Nodes int64
	// NodesVsExact is Nodes divided by the exact mode's Nodes at this SNR
	// (1.0 for the exact row).
	NodesVsExact float64
	// NodesSaved is the decoder's own estimate of child expansions avoided
	// by approximate search (zero for the exact row).
	NodesSaved int64
	// Delivered counts messages decoded within the pass budget.
	Delivered int
	Trials    int
}

// FrontierComparison runs the same rateless transmissions under every
// search mode and reports rate and tree-expansion work per (SNR, mode).
// Message and channel randomness derive from the configured seed and the
// trial index, so all modes face byte-identical symbol streams and the node
// ratios are deterministic.
func FrontierComparison(cfg SpinalConfig, snrsDB []float64) ([]FrontierPoint, error) {
	cfg = cfg.withDefaults()
	if cfg.Pool == nil {
		cfg.Pool = core.NewDecoderPool(core.DefaultDecoderPoolCapacity)
		defer cfg.Pool.Drain()
	}
	points := make([]FrontierPoint, 0, len(snrsDB)*len(frontierModes))
	for _, snr := range snrsDB {
		var exact FrontierPoint
		for i, sc := range frontierModes {
			pt, err := frontierAtSNR(cfg, snr, sc)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				exact = pt
			}
			if exact.Rate > 0 {
				pt.RateVsExact = pt.Rate / exact.Rate
			}
			if exact.Nodes > 0 {
				pt.NodesVsExact = float64(pt.Nodes) / float64(exact.Nodes)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// frontierAtSNR runs one (SNR, mode) cell: the sessions' default attempt
// policy on every trial.
func frontierAtSNR(cfg SpinalConfig, snrDB float64, sc core.SearchMode) (FrontierPoint, error) {
	results, err := runTrials(cfg, snrDB, core.AttemptAdaptive{}, sc)
	if err != nil {
		return FrontierPoint{}, err
	}
	pt := FrontierPoint{SNRdB: snrDB, Mode: sc.String(), Trials: cfg.Trials}
	var bits, uses int64
	for _, r := range results {
		uses += int64(r.uses)
		pt.Nodes += r.nodes
		pt.NodesSaved += r.saved
		if r.ok {
			bits += int64(cfg.MessageBits)
			pt.Delivered++
		}
	}
	if uses > 0 {
		pt.Rate = float64(bits) / float64(uses)
	}
	return pt, nil
}

// FrontierColumns is the point schema of the approximate-search frontier.
// Every column is deterministic: node counts are decoder work, not
// wall-clock, and all modes share per-trial seeds.
func FrontierColumns() []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col("search", "%s"),
		sim.Col("rate_bits_per_sym", "%.3f"),
		sim.Col("rate_vs_exact", "%.3f"),
		sim.Col("nodes", "%d"),
		sim.Col("nodes_vs_exact", "%.3f"),
		sim.Col("nodes_saved", "%d"),
		sim.Col("delivered", "%d"),
		sim.Col("trials", "%d"),
	}
}

// FormatFrontier renders the approximate-search frontier.
func FormatFrontier(pts []FrontierPoint) *sim.Table {
	t := sim.NewTable("", FrontierColumns()...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Mode, p.Rate, p.RateVsExact, p.Nodes,
			p.NodesVsExact, p.NodesSaved, p.Delivered, p.Trials)
	}
	return t
}
