// Package sim is the unified experiment engine of the repository: a
// declarative registry of simulation scenarios, a sharded trial runner with
// deterministic per-trial seeding, and a structured result model rendered by
// pluggable sinks (aligned text, RFC 4180 CSV, JSON).
//
// Every experiment in internal/experiments registers a Scenario here; the
// spinalsim command dispatches purely through the registry (`-exp list`
// enumerates it), so adding an experiment means registering one Scenario —
// no new flag plumbing, no new trial loop, no new output code.
//
// The runner's guarantee mirrors the decoder's: results are bit-identical at
// any worker count. Trials derive their randomness from the trial index (not
// from goroutine scheduling), land in a slice indexed by trial, and are
// folded into statistics in trial order.
package sim

// Request carries the generic experiment knobs the spinalsim command exposes
// as flags. Scenarios read the knobs they declare in Scenario.Flags and
// apply their own defaults for the rest; zero values mean "scenario
// default" throughout, except for SNR, where zero is a meaningful operating
// point. Library callers wanting the flag defaults should start from
// DefaultRequest rather than a zero Request.
type Request struct {
	// SNRs is the resolved -snr-min/-snr-max/-snr-step sweep in dB.
	SNRs []float64
	// SNR is the single operating point (-snr) used by sweeps over a
	// non-SNR axis (beam width, ADC bits, flows). Unlike the other knobs,
	// zero is honored as a real 0 dB operating point — the canonical
	// low-SNR setting — not remapped to a default.
	SNR float64
	// Trials is the number of messages per spinal data point (-trials).
	Trials int
	// Frames is the number of frames per fixed-rate baseline point (-frames).
	Frames int
	// Beam is the decoder beam width B (-beam).
	Beam int
	// K is the number of message bits per spine segment (-k).
	K int
	// C is the number of coded bits per I/Q dimension (-c).
	C int
	// MessageBits is the message length (-m).
	MessageBits int
	// ADCBits is the receiver quantizer resolution (-adc).
	ADCBits int
	// Seed overrides the experiment seed; zero keeps each scenario's default.
	Seed uint64
	// Mapper names the constellation mapping (-mapper).
	Mapper string
	// Schedule names the transmission schedule (-schedule).
	Schedule string
	// TrialWorkers is the trial runner's worker-pool size (-trial-workers);
	// zero means GOMAXPROCS. Results are bit-identical at any setting.
	TrialWorkers int
	// Short asks the scenario for its abbreviated configuration (-short):
	// fewer flows/messages/rounds, tuned so CI smoke jobs finish quickly.
	// Scenarios that declare the flag scale down; the rest ignore it.
	Short bool
	// Search names the decoder search strategy (-search): "exact"
	// (default) or "approx" (core.ParseSearchMode spellings). Scenarios
	// that declare the flag pass it to their decoders; the rest ignore it.
	Search string
	// CPUProfile and MemProfile are file paths for pprof output
	// (-cpuprofile/-memprofile); empty disables. The profiles cover the
	// scenario run, not flag parsing or output rendering — see Profile.
	CPUProfile string
	MemProfile string
}

// DefaultRequest returns the knob values the spinalsim flags default to, so
// tests and library callers can run scenarios without replicating the flag
// definitions.
func DefaultRequest() Request {
	var snrs []float64
	for v := -10.0; v <= 40; v += 5 {
		snrs = append(snrs, v)
	}
	return Request{
		SNRs:        snrs,
		SNR:         10,
		Trials:      100,
		Frames:      60,
		Beam:        16,
		K:           8,
		C:           10,
		MessageBits: 24,
		ADCBits:     14,
		Mapper:      "linear",
		Schedule:    "striped",
	}
}
