package experiments

import (
	"spinal/internal/sim"
)

// This file declares the point schemas of every experiment and renders
// result rows into sim.Tables, so the spinalsim command emits the same
// structured results — aligned text, RFC 4180 CSV or JSON — for every
// scenario in the registry. Columns whose values depend on wall-clock time
// (elapsed, speedups, goodput) are declared volatile so determinism tests
// compare only reproducible cells.

// RateCurveColumns is the point schema of a spinal rate-versus-SNR curve.
// Every point carries the sample count and a 95% confidence half-width on
// the per-message rate mean, streamed out of stats.Running.
func RateCurveColumns(name string) []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col(name+"_rate_bits_per_sym", "%.3f"),
		sim.Col("capacity", "%.3f"),
		sim.Col("conf95", "%.3f"),
		sim.Col("failures", "%d"),
		sim.Col("trials", "%d"),
	}
}

// FormatRateCurve renders a spinal rate curve next to capacity.
func FormatRateCurve(name string, pts []RatePoint) *sim.Table {
	t := sim.NewTable("", RateCurveColumns(name)...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Rate, p.Capacity, p.Conf95, p.Failures, p.Trials)
	}
	return t
}

// BoundsColumns is the point schema of the Figure 2 reference bounds.
func BoundsColumns() []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col("shannon", "%.3f"),
		sim.Col("finite_block_n24_eps1e-4", "%.3f"),
		sim.Col("theorem1", "%.3f"),
	}
}

// FormatBounds renders the reference bounds of Figure 2.
func FormatBounds(pts []BoundPoint) *sim.Table {
	t := sim.NewTable("", BoundsColumns()...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Shannon, p.FiniteBlock, p.Theorem1)
	}
	return t
}

// ThroughputColumns is the point schema of a fixed-rate baseline curve. The
// conf95 column is the 95% half-width on the per-frame delivered-rate mean.
func ThroughputColumns(label string) []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col(label+"_throughput", "%.3f"),
		sim.Col("peak_rate", "%.3f"),
		sim.Col("fer", "%.3f"),
		sim.Col("conf95", "%.3f"),
		sim.Col("frames", "%d"),
	}
}

// FormatThroughput renders a fixed-rate baseline curve.
func FormatThroughput(label string, pts []ThroughputPoint) *sim.Table {
	t := sim.NewTable("", ThroughputColumns(label)...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Throughput, p.PeakRate, p.FER, p.Conf95, p.Frames)
	}
	return t
}

// BeamSweepColumns is the point schema of the beam-width ablation.
func BeamSweepColumns() []sim.Column {
	return []sim.Column{
		sim.Col("beam_width", "%d"),
		sim.Col("rate_bits_per_sym", "%.3f"),
		sim.Col("capacity", "%.3f"),
		sim.Col("conf95", "%.3f"),
		sim.Col("failures", "%d"),
		sim.Col("trials", "%d"),
	}
}

// FormatBeamSweep renders the beam-width ablation.
func FormatBeamSweep(pts []BeamPoint) *sim.Table {
	t := sim.NewTable("", BeamSweepColumns()...)
	for _, p := range pts {
		t.AddRow(p.BeamWidth, p.Rate, p.Capacity, p.Conf95, p.Failures, p.Trials)
	}
	return t
}

// ADCSweepColumns is the point schema of the quantization ablation.
func ADCSweepColumns() []sim.Column {
	return []sim.Column{
		sim.Col("adc_bits", "%d"),
		sim.Col("rate_bits_per_sym", "%.3f"),
		sim.Col("capacity", "%.3f"),
		sim.Col("conf95", "%.3f"),
		sim.Col("trials", "%d"),
	}
}

// FormatADCSweep renders the quantization ablation.
func FormatADCSweep(pts []ADCPoint) *sim.Table {
	t := sim.NewTable("", ADCSweepColumns()...)
	for _, p := range pts {
		t.AddRow(p.Bits, p.Rate, p.Capacity, p.Conf95, p.Trials)
	}
	return t
}

// BSCColumns is the point schema of the Theorem 2 experiment.
func BSCColumns() []sim.Column {
	return []sim.Column{
		sim.Col("crossover_p", "%.3f"),
		sim.Col("rate_bits_per_use", "%.3f"),
		sim.Col("bsc_capacity", "%.3f"),
		sim.Col("conf95", "%.3f"),
		sim.Col("failures", "%d"),
		sim.Col("trials", "%d"),
	}
}

// FormatBSC renders the Theorem 2 experiment.
func FormatBSC(pts []BSCPoint) *sim.Table {
	t := sim.NewTable("", BSCColumns()...)
	for _, p := range pts {
		t.AddRow(p.P, p.Rate, p.Capacity, p.Conf95, p.Failures, p.Trials)
	}
	return t
}

// Theorem1Columns is the point schema of the Theorem 1 gap experiment.
func Theorem1Columns() []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col("rate", "%.3f"),
		sim.Col("theorem1_guarantee", "%.3f"),
		sim.Col("capacity", "%.3f"),
		sim.Col("gap_to_capacity", "%.3f"),
		sim.Col("meets_bound", "%t"),
	}
}

// FormatTheorem1 renders the Theorem 1 gap experiment.
func FormatTheorem1(pts []Theorem1Point) *sim.Table {
	t := sim.NewTable("", Theorem1Columns()...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Rate, p.Guarantee, p.Capacity, p.GapToCap, p.MeetsBound)
	}
	return t
}

// FountainColumns is the point schema of the LT overhead experiment.
func FountainColumns() []sim.Column {
	return []sim.Column{
		sim.Col("erasure_p", "%.2f"),
		sim.Col("received_overhead", "%.3f"),
		sim.Col("sent_per_block", "%.3f"),
		sim.Col("trials", "%d"),
	}
}

// FormatFountain renders the LT overhead experiment.
func FormatFountain(pts []OverheadPoint) *sim.Table {
	t := sim.NewTable("", FountainColumns()...)
	for _, p := range pts {
		t.AddRow(p.ErasureProb, p.Overhead, p.SentPerBlock, p.Trials)
	}
	return t
}

// AdaptationColumns is the point schema of the adaptation comparison.
func AdaptationColumns() []sim.Column {
	return []sim.Column{
		sim.Col("scenario", "%s"),
		sim.Col("adaptive_bits_per_sym", "%.3f"),
		sim.Col("adaptive_fer", "%.3f"),
		sim.Col("rateless_bits_per_sym", "%.3f"),
		sim.Col("rateless_failures", "%d"),
		sim.Col("symbol_budget", "%d"),
	}
}

// FormatAdaptation renders the adaptation comparison.
func FormatAdaptation(pts []AdaptationPoint) *sim.Table {
	t := sim.NewTable("", AdaptationColumns()...)
	for _, p := range pts {
		t.AddRow(p.Scenario, p.AdaptiveThroughput, p.AdaptiveFER,
			p.RatelessThroughput, p.RatelessFailures, p.SymbolBudget)
	}
	return t
}

// FixedRateColumns is the point schema of the fixed-rate spinal experiment.
func FixedRateColumns() []sim.Column {
	return []sim.Column{
		sim.Col("snr_db", "%.1f"),
		sim.Col("passes", "%d"),
		sim.Col("fixed_rate", "%.3f"),
		sim.Col("fixed_throughput", "%.3f"),
		sim.Col("fixed_fer", "%.3f"),
		sim.Col("rateless_rate", "%.3f"),
	}
}

// FormatFixedRate renders the fixed-rate spinal experiment.
func FormatFixedRate(pts []FixedRatePoint) *sim.Table {
	t := sim.NewTable("", FixedRateColumns()...)
	for _, p := range pts {
		t.AddRow(p.SNRdB, p.Passes, p.Rate, p.Throughput, p.FER, p.RatelessRate)
	}
	return t
}

// ChaosSoakColumns is the point schema of the chaos soak. The outcome split,
// fairness and fault-ledger columns depend on wall-clock scheduling over the
// UDP loopback, so they are volatile; the gated columns (lost and the two
// leak counters) are deterministic zeros on a passing run.
func ChaosSoakColumns() []sim.Column {
	return []sim.Column{
		sim.Col("mode", "%s"),
		sim.Col("flows", "%d"),
		sim.Col("messages", "%d"),
		sim.VolatileCol("delivered", "%d"),
		sim.VolatileCol("shed", "%d"),
		sim.VolatileCol("expired", "%d"),
		sim.Col("lost", "%d"),
		sim.VolatileCol("fairness", "%.3f"),
		sim.VolatileCol("hostile_delivered", "%d"),
		sim.VolatileCol("budget_deferrals", "%d"),
		sim.VolatileCol("acks_ignored", "%d"),
		sim.VolatileCol("fault_drops", "%d"),
		sim.VolatileCol("fault_corrupted", "%d"),
		sim.VolatileCol("fault_duplicated", "%d"),
		sim.VolatileCol("fault_reordered", "%d"),
		sim.VolatileCol("fault_errors", "%d"),
		sim.Col("pool_outstanding", "%d"),
		sim.Col("ack_arena_outstanding", "%d"),
		sim.VolatileCol("elapsed_ms", "%.1f"),
	}
}

// FormatChaosSoak renders the chaos soak.
func FormatChaosSoak(pts []ChaosSoakPoint) *sim.Table {
	t := sim.NewTable("", ChaosSoakColumns()...)
	for _, p := range pts {
		t.AddRow(p.Mode, p.Flows, p.Messages, p.Delivered, p.Shed, p.Expired,
			p.Lost, p.Fairness, p.HostileDelivered, p.BudgetDeferrals,
			p.AckFramesIgnored, p.FaultDrops, p.FaultCorrupted,
			p.FaultDuplicated, p.FaultReordered, p.FaultErrors,
			p.PoolOutstanding, p.AckArenaOutstanding,
			float64(p.Elapsed.Microseconds())/1000)
	}
	return t
}
