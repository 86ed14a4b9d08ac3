package experiments

import (
	"fmt"
	"strings"

	"spinal/internal/core"
	"spinal/internal/ldpc"
	"spinal/internal/sim"
)

// This file registers every experiment as a sim.Scenario, which is the only
// dispatch surface the spinalsim command has: `-exp list` enumerates this
// registry, and adding an experiment to the binary means adding one
// Register call here. Each Run builds its configuration from the generic
// sim.Request knobs, runs the experiment (all trial loops shard over
// sim.Run) and returns a structured sim.Result.

// Flag-name groups shared by the scenario declarations.
var (
	codeFlags  = []string{"trials", "beam", "k", "c", "m", "adc", "seed", "mapper", "schedule", "trial-workers", "search"}
	sweepFlags = append([]string{"snr-min", "snr-max", "snr-step"}, codeFlags...)
	pointFlags = append([]string{"snr"}, codeFlags...)
)

// spinalConfigFrom maps the generic request knobs onto a SpinalConfig,
// mirroring the historical spinalsim flag handling: zero-valued knobs keep
// the Figure 2 defaults. The only error source is an unknown -search
// spelling.
func spinalConfigFrom(req sim.Request) (SpinalConfig, error) {
	cfg := Figure2Config()
	if req.Trials > 0 {
		cfg.Trials = req.Trials
	}
	if req.Beam > 0 {
		cfg.BeamWidth = req.Beam
	}
	if req.K > 0 {
		cfg.K = req.K
	}
	if req.C > 0 {
		cfg.C = req.C
	}
	if req.MessageBits > 0 {
		cfg.MessageBits = req.MessageBits
	}
	if req.ADCBits > 0 {
		cfg.ADCBits = req.ADCBits
	}
	if req.Mapper != "" {
		cfg.Mapper = req.Mapper
	}
	if req.Schedule != "" {
		cfg.Schedule = req.Schedule
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	cfg.TrialWorkers = req.TrialWorkers
	search, err := core.ParseSearchMode(req.Search)
	if err != nil {
		return cfg, err
	}
	cfg.Search = search
	return cfg, nil
}

// snrsFrom returns the request's sweep, defaulting to the Figure 2 grid.
func snrsFrom(req sim.Request) []float64 {
	if len(req.SNRs) > 0 {
		return req.SNRs
	}
	return sim.DefaultRequest().SNRs
}

// capTrials bounds a scenario's trial count for experiments that run every
// trial more than once (scaling comparisons), keeping the default -trials
// from exploding their runtime.
func capTrials(trials, cap int) int {
	if trials < 1 || trials > cap {
		return cap
	}
	return trials
}

func init() {
	sim.Register(sim.Scenario{
		Name:        "figure2",
		Description: "every curve of Figure 2: reference bounds, the spinal code, eight LDPC baselines",
		Flags:       append([]string{"frames"}, sweepFlags...),
		Schema:      RateCurveColumns("spinal"),
		Run:         runFigure2Scenario,
	})
	sim.Register(sim.Scenario{
		Name:        "spinal",
		Description: "rate achieved by the practical spinal decoder across the SNR sweep",
		Flags:       sweepFlags,
		Schema:      RateCurveColumns("spinal"),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			pts, err := SpinalRateCurve(cfg, snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("spinal")
			res.Add(FormatRateCurve("spinal", pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "bounds",
		Description: "Shannon, finite-blocklength and Theorem 1 reference bounds",
		Flags:       []string{"snr-min", "snr-max", "snr-step"},
		Schema:      BoundsColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			pts, err := Figure2Bounds(snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("bounds")
			res.Add(FormatBounds(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "ldpc",
		Description: "the eight fixed-rate LDPC baseline curves of Figure 2",
		Flags:       []string{"snr-min", "snr-max", "snr-step", "frames", "trial-workers"},
		Schema:      ThroughputColumns("ldpc"),
		Run: func(req sim.Request) (*sim.Result, error) {
			res := sim.NewResult("ldpc")
			for _, cfg := range Figure2LDPCConfigs() {
				if req.Frames > 0 {
					cfg.Frames = req.Frames
				}
				cfg.TrialWorkers = req.TrialWorkers
				pts, err := LDPCThroughputCurve(cfg, snrsFrom(req))
				if err != nil {
					return nil, err
				}
				t := FormatThroughput(strings.ReplaceAll(cfg.Label(), " ", "_"), pts)
				t.Title = fmt.Sprintf("%s (648-bit codewords, %d-iteration BP)", cfg.Label(), ldpc.DefaultIterations)
				res.Add(t)
			}
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "conv",
		Description: "punctured convolutional (K=7, Viterbi) baselines at rates 1/2, 2/3, 3/4",
		Flags:       []string{"snr-min", "snr-max", "snr-step", "frames", "trial-workers"},
		Schema:      ThroughputColumns("conv"),
		Run: func(req sim.Request) (*sim.Result, error) {
			res := sim.NewResult("conv")
			for _, rate := range []string{"1/2", "2/3", "3/4"} {
				cfg := ConvConfig{Rate: rate, Modulation: "BPSK", Frames: req.Frames, TrialWorkers: req.TrialWorkers}
				pts, err := ConvThroughputCurve(cfg, snrsFrom(req))
				if err != nil {
					return nil, err
				}
				t := FormatThroughput("conv_"+strings.ReplaceAll(rate, "/", ""), pts)
				t.Title = fmt.Sprintf("convolutional K=7 rate %s over BPSK", rate)
				res.Add(t)
			}
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "bsc",
		Description: "spinal rate over binary symmetric channels (Theorem 2), k=4 unless -k overrides",
		Flags:       codeFlags,
		Schema:      BSCColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			if req.K == 0 || req.K == 8 {
				cfg.K = 4 // a k=4 code keeps BSC decoding fast; override with -k
			}
			pts, err := SpinalBSCCurve(cfg, []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4})
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("bsc")
			res.Notef("effective config: k=%d (this experiment defaults k to 4; pass -k to override)", cfg.K)
			res.Add(FormatBSC(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "beam",
		Description: "graceful scale-down: achieved rate versus decoder beam width at one SNR",
		Flags:       pointFlags,
		Schema:      BeamSweepColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			snr := req.SNR
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			pts, err := BeamWidthSweep(cfg, snr, []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("beam")
			res.Notef("graceful scale-down at %.1f dB", snr)
			res.Add(FormatBeamSweep(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "puncture",
		Description: "punctured (striped) versus sequential schedule across the SNR sweep",
		Flags:       sweepFlags,
		Schema:      RateCurveColumns("punctured"),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			punct, seq, err := PuncturingComparison(cfg, snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("puncture")
			tp := FormatRateCurve("punctured", punct)
			tp.Title = "punctured (striped) schedule"
			res.Add(tp)
			ts := FormatRateCurve("sequential", seq)
			ts.Title = "sequential schedule"
			res.Add(ts)
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "adc",
		Description: "achieved rate versus receiver ADC resolution at one SNR",
		Flags:       pointFlags,
		Schema:      ADCSweepColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			snr := req.SNR
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			pts, err := QuantizationSweep(cfg, snr, []int{4, 6, 8, 10, 12, 14, 16})
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("adc")
			res.Notef("ADC resolution sweep at %.1f dB", snr)
			res.Add(FormatADCSweep(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "mapper",
		Description: "rate curves for the linear, uniform and gaussian constellation mappings",
		Flags:       sweepFlags,
		Schema:      RateCurveColumns("linear"),
		Run: func(req sim.Request) (*sim.Result, error) {
			mappers := []string{"linear", "uniform", "gaussian"}
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			curves, err := MapperComparison(cfg, snrsFrom(req), mappers)
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("mapper")
			for _, name := range mappers {
				t := FormatRateCurve(name, curves[name])
				t.Title = "mapper: " + name
				res.Add(t)
			}
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "theorem1",
		Description: "measured rate against the Theorem 1 guarantee and capacity",
		Flags:       sweepFlags,
		Schema:      Theorem1Columns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			pts, err := Theorem1Gap(cfg, snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("theorem1")
			res.Add(FormatTheorem1(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "fountain",
		Description: "LT fountain-code reception overhead over binary erasure channels",
		Flags:       []string{"trials", "seed", "trial-workers"},
		Schema:      FountainColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg := FountainConfig{
				Trials:       capTrials(req.Trials, 20),
				Seed:         req.Seed,
				TrialWorkers: req.TrialWorkers,
			}
			pts, err := FountainOverhead(cfg)
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("fountain")
			res.Notef("effective config: %d trials per erasure point (this experiment caps trials at 20)", cfg.Trials)
			res.Add(FormatFountain(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "harq",
		Description: "LDPC hybrid ARQ (Chase combining) throughput over QAM-4/16/64",
		Flags:       []string{"snr-min", "snr-max", "snr-step", "frames", "trial-workers"},
		Schema:      ThroughputColumns("harq"),
		Run: func(req sim.Request) (*sim.Result, error) {
			res := sim.NewResult("harq")
			for _, mod := range []string{"QAM-4", "QAM-16", "QAM-64"} {
				cfg := HARQConfig{Rate: ldpc.Rate12, Modulation: mod, Frames: req.Frames, TrialWorkers: req.TrialWorkers}
				pts, err := HARQThroughputCurve(cfg, snrsFrom(req))
				if err != nil {
					return nil, err
				}
				t := FormatThroughput("harq_"+mod, pts)
				t.Title = fmt.Sprintf("hybrid ARQ (Chase combining), LDPC rate 1/2, %s", mod)
				res.Add(t)
			}
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "adapt",
		Description: "reactive rate adaptation versus rateless spinal over time-varying channels",
		Flags:       []string{"trials", "seed", "trial-workers"},
		Schema:      AdaptationColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			budget := 20000
			if req.Trials > 0 && req.Trials < 100 {
				budget = req.Trials * 200 // let -trials scale the run length
				if budget < 1000 {
					budget = 1000
				}
			}
			pts, err := AdaptationComparison(AdaptationConfig{
				SymbolBudget: budget,
				Seed:         req.Seed,
				TrialWorkers: req.TrialWorkers,
			})
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("adapt")
			res.Notef("reactive rate adaptation vs rateless spinal over time-varying channels")
			res.Add(FormatAdaptation(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "fixedrate",
		Description: "fixed-rate spinal instantiation at 2, 4 and 8 passes versus the rateless rate",
		Flags:       sweepFlags,
		Schema:      FixedRateColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			rateless, err := SpinalRateCurve(cfg, snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("fixedrate")
			for _, passes := range []int{2, 4, 8} {
				pts, err := FixedRateSpinal(cfg, rateless, passes)
				if err != nil {
					return nil, err
				}
				t := FormatFixedRate(pts)
				t.Title = fmt.Sprintf("fixed-rate spinal code, %d passes (%.2f bits/symbol nominal)",
					passes, float64(cfg.MessageBits)/float64(passes*((cfg.MessageBits+cfg.K-1)/cfg.K)))
				res.Add(t)
			}
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "frontier",
		Description: "approximate-search frontier: rate vs nodes expanded for exact/approx on identical seeds",
		Flags:       append([]string{"snr-min", "snr-max", "snr-step", "short"}, codeFlags...),
		Schema:      FrontierColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			if req.Beam == 0 || req.Beam == 16 {
				// The -beam default; the bubble cap (max(2, B/8) parents)
				// needs beam headroom to show its work savings, so this
				// experiment runs B=32 unless -beam selects something else.
				cfg.BeamWidth = 32
			}
			if req.MessageBits == 0 || req.MessageBits == 24 {
				// Likewise the -m default: longer messages give the search
				// tree enough unobserved levels for the cap to matter.
				cfg.MessageBits = 96
			}
			cfg.MaxPasses = 150
			cfg.Trials = capTrials(req.Trials, 20)
			if req.Short {
				cfg.Trials = capTrials(req.Trials, 4)
			}
			pts, err := FrontierComparison(cfg, snrsFrom(req))
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("frontier")
			res.Notef("approximate-search frontier: both modes decode the same per-trial symbol streams (-search is ignored; both modes run)")
			res.Notef("gate: at the default operating point approx delivers exactly the messages exact delivers (rate_vs_exact 1.000) at <=40%% of the exact nodes")
			res.Notef("effective config: B=%d, m=%d, %d trials, %d passes max (this experiment defaults B to 32 and m to 96; -beam/-m override)",
				cfg.BeamWidth, cfg.MessageBits, cfg.Trials, cfg.MaxPasses)
			res.Add(FormatFrontier(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "saturate",
		Description: "load-adaptive search under saturation: many flows, scarce decode workers, adaptive vs all-exact goodput",
		Flags:       append([]string{"snr", "short"}, codeFlags...),
		Schema:      SaturateColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			cfg, err := spinalConfigFrom(req)
			if err != nil {
				return nil, err
			}
			if req.K == 0 || req.K == 8 {
				// The -k default; many concurrent decodes make k=8 slow, so
				// this experiment runs k=4 unless -k selects something else.
				cfg.K = 4
			}
			flows, msgs := 16, 4
			if req.Trials > 0 && req.Trials < 100 {
				msgs = req.Trials // let -trials scale messages per flow
			}
			if req.Short {
				flows, msgs = 6, 2
			}
			const budget = 4000
			pts, err := SaturateComparison(cfg, req.SNR, flows, msgs, budget)
			if err != nil {
				return nil, err
			}
			res := sim.NewResult("saturate")
			res.Notef("saturated receiver at %.1f dB: %d flows x %d messages on %d decode workers, per-flow decode budget %d nodes",
				req.SNR, flows, msgs, saturateDecodeWorkers, budget)
			res.Notef("gate: adaptive goodput should beat all-exact with Jain fairness within 5%% (wall-clock dependent; CRC keeps approximate decodes safe)")
			res.Notef("effective config: k=%d (this experiment defaults k to 4; pass -k to override)", cfg.K)
			res.Add(FormatSaturate(pts))
			return res, nil
		},
	})
	sim.Register(sim.Scenario{
		Name:        "chaossoak",
		Description: "chaos-hardened link engine soak: seeded fault schedules end to end, delivered-or-shed, leak and fairness gates",
		Flags:       []string{"trials", "seed", "short"},
		Schema:      ChaosSoakColumns(),
		Run: func(req sim.Request) (*sim.Result, error) {
			flows, msgs := 4, 3
			if req.Trials > 0 && req.Trials < 100 {
				msgs = req.Trials // let -trials scale messages per flow
			}
			if req.Short {
				flows, msgs = 3, 2
			}
			pts, err := ChaosSoak(req.Seed, flows, msgs, 0.9)
			res := sim.NewResult("chaossoak")
			res.Notef("link engine soak over fault-injected UDP loopback: %d flows x %d messages, clean vs chaos (last flow hostile)", flows, msgs)
			res.Notef("gates: 0 lost-forever messages, 0 leaked decoder leases / ack buffers, hostile-flow fairness >= 0.9x clean run")
			if len(pts) > 0 {
				res.Add(FormatChaosSoak(pts))
			}
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})
}

// runFigure2Scenario reproduces every curve of Figure 2: the bounds, the
// spinal code and the eight LDPC baselines.
func runFigure2Scenario(req sim.Request) (*sim.Result, error) {
	snrs := snrsFrom(req)
	res := sim.NewResult("figure2")

	bounds, err := Figure2Bounds(snrs)
	if err != nil {
		return nil, err
	}
	tb := FormatBounds(bounds)
	tb.Title = "Figure 2 — reference bounds"
	res.Add(tb)

	cfg, err := spinalConfigFrom(req)
	if err != nil {
		return nil, err
	}
	spinalPts, err := SpinalRateCurve(cfg, snrs)
	if err != nil {
		return nil, err
	}
	ts := FormatRateCurve("spinal", spinalPts)
	ts.Title = fmt.Sprintf("Figure 2 — spinal code (m=%d, k=%d, c=%d, B=%d, %d-bit ADC)",
		cfg.MessageBits, cfg.K, cfg.C, cfg.BeamWidth, cfg.ADCBits)
	res.Add(ts)

	for _, ldpcCfg := range Figure2LDPCConfigs() {
		if req.Frames > 0 {
			ldpcCfg.Frames = req.Frames
		}
		ldpcCfg.TrialWorkers = req.TrialWorkers
		pts, err := LDPCThroughputCurve(ldpcCfg, snrs)
		if err != nil {
			return nil, err
		}
		t := FormatThroughput(strings.ReplaceAll(ldpcCfg.Label(), " ", "_"), pts)
		t.Title = fmt.Sprintf("Figure 2 — %s (648-bit codewords, %d-iteration BP)", ldpcCfg.Label(), ldpc.DefaultIterations)
		res.Add(t)
	}
	return res, nil
}
