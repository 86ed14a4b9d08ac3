// Command spinalsim regenerates the evaluation artifacts of "Rateless Spinal
// Codes" (HotNets 2011): the Figure 2 rate-versus-SNR curves (spinal code,
// Shannon and finite-blocklength bounds, fixed-rate LDPC baselines) and the
// ablation and scaling experiments that grew around them.
//
// Dispatch is registry-driven: every experiment registers a sim.Scenario,
// and the command only knows how to enumerate and run the registry.
//
// Examples:
//
//	spinalsim -exp list                  # enumerate every scenario
//	spinalsim -exp figure2 -snr-step 5 -trials 100
//	spinalsim -exp bsc -json | jq '.tables[0].rows'
//	spinalsim -exp beam -snr 10
//	spinalsim -exp saturate -csv
//
// Pass -csv for comma-separated values or -json for machine-readable output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spinal/internal/experiments" // importing registers every scenario
	"spinal/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spinalsim:", err)
		os.Exit(1)
	}
}

type options struct {
	exp          string
	snrMin       float64
	snrMax       float64
	snrStep      float64
	snr          float64
	trials       int
	frames       int
	beam         int
	k            int
	c            int
	msgBits      int
	adcBits      int
	seed         uint64
	mapper       string
	schedule     string
	trialWorkers int
	short        bool
	search       string
	cpuProfile   string
	memProfile   string
	csv          bool
	json         bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spinalsim", flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.exp, "exp", "figure2",
		"experiment to run, or \"list\" to enumerate the scenario registry")
	fs.Float64Var(&opt.snrMin, "snr-min", -10, "sweep start (dB)")
	fs.Float64Var(&opt.snrMax, "snr-max", 40, "sweep end (dB)")
	fs.Float64Var(&opt.snrStep, "snr-step", 5, "sweep step (dB)")
	fs.Float64Var(&opt.snr, "snr", 10, "single SNR (dB) for beam/adc/saturate experiments")
	fs.IntVar(&opt.trials, "trials", 100, "messages per spinal data point")
	fs.IntVar(&opt.frames, "frames", 60, "frames per LDPC/convolutional/HARQ data point")
	fs.IntVar(&opt.beam, "beam", 16, "decoder beam width B")
	fs.IntVar(&opt.k, "k", 8, "bits per spine segment")
	fs.IntVar(&opt.c, "c", 10, "coded bits per I/Q dimension")
	fs.IntVar(&opt.msgBits, "m", 24, "message length in bits")
	fs.IntVar(&opt.adcBits, "adc", 14, "receiver ADC bits per dimension")
	fs.Uint64Var(&opt.seed, "seed", 0, "override experiment seed (0 = default)")
	fs.StringVar(&opt.mapper, "mapper", "linear", "constellation mapper: linear|uniform|gaussian")
	fs.StringVar(&opt.schedule, "schedule", "striped", "transmission schedule: striped|sequential")
	fs.IntVar(&opt.trialWorkers, "trial-workers", 0,
		"trial-runner worker goroutines (0 = GOMAXPROCS; results are bit-identical at any setting)")
	fs.BoolVar(&opt.short, "short", false,
		"run the scenario's abbreviated configuration (CI smoke); scenarios that do not declare it ignore it")
	fs.StringVar(&opt.search, "search", "",
		"decoder search strategy: exact|approx (empty = exact); scenarios that do not declare it ignore it")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the scenario run to this file")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile taken after the scenario run to this file")
	fs.BoolVar(&opt.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&opt.json, "json", false, "emit machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opt.csv && opt.json {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}

	if opt.exp == "list" {
		return emitList(opt, out)
	}
	sc, ok := sim.Lookup(opt.exp)
	if !ok {
		if suggestions := sim.Suggest(opt.exp); len(suggestions) > 0 {
			return fmt.Errorf("unknown experiment %q (did you mean %q?); run -exp list",
				opt.exp, suggestions[0])
		}
		return fmt.Errorf("unknown experiment %q; run -exp list", opt.exp)
	}

	req, err := opt.request()
	if err != nil && scenarioConsumes(sc, "snr-min") {
		// Only scenarios that declare the sweep flags reject a bad sweep;
		// the rest ignore unrelated flag values, per the Scenario.Flags
		// contract (req.SNRs stays empty, selecting the scenario default).
		return err
	}
	stopProfile, err := sim.Profile(req)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sc.Run(req)
	elapsed := time.Since(start)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	if err := opt.sink().Emit(out, res); err != nil {
		return err
	}
	if !opt.json {
		fmt.Fprintf(out, "\n# completed %s in %v\n", opt.exp, elapsed.Round(time.Millisecond))
	}
	return nil
}

// scenarioConsumes reports whether the scenario declares the named flag.
func scenarioConsumes(sc *sim.Scenario, flag string) bool {
	for _, f := range sc.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// request resolves the parsed flags into the scenario request. A malformed
// sweep is returned as an error next to an otherwise-complete request (with
// no SNRs), so the caller can decide whether the scenario cares.
func (o options) request() (sim.Request, error) {
	snrs, err := experiments.SNRSweep(o.snrMin, o.snrMax, o.snrStep)
	return sim.Request{
		SNRs:         snrs,
		SNR:          o.snr,
		Trials:       o.trials,
		Frames:       o.frames,
		Beam:         o.beam,
		K:            o.k,
		C:            o.c,
		MessageBits:  o.msgBits,
		ADCBits:      o.adcBits,
		Seed:         o.seed,
		Mapper:       o.mapper,
		Schedule:     o.schedule,
		TrialWorkers: o.trialWorkers,
		Short:        o.short,
		Search:       o.search,
		CPUProfile:   o.cpuProfile,
		MemProfile:   o.memProfile,
	}, err
}

// sink selects the output renderer for the parsed flags.
func (o options) sink() sim.Sink {
	switch {
	case o.json:
		return sim.JSONSink{}
	case o.csv:
		return sim.CSVSink{}
	default:
		return sim.TextSink{}
	}
}

// emitList renders the scenario registry: as an aligned table (or CSV) with
// one row per scenario, or as JSON carrying names, descriptions, consumed
// flags and point schemas — the machine-readable form CI iterates.
func emitList(o options, out io.Writer) error {
	if o.json {
		type jsonScenario struct {
			Name        string   `json:"name"`
			Description string   `json:"description"`
			Flags       []string `json:"flags"`
			Columns     []string `json:"columns,omitempty"`
		}
		list := struct {
			Scenarios []jsonScenario `json:"scenarios"`
		}{}
		for _, sc := range sim.Scenarios() {
			cols := make([]string, len(sc.Schema))
			for i, c := range sc.Schema {
				cols[i] = c.Name
			}
			list.Scenarios = append(list.Scenarios, jsonScenario{
				Name:        sc.Name,
				Description: sc.Description,
				Flags:       sc.Flags,
				Columns:     cols,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(list)
	}
	tab := sim.NewTable("",
		sim.Col("scenario", "%s"),
		sim.Col("description", "%s"),
		sim.Col("flags", "%s"),
	)
	for _, sc := range sim.Scenarios() {
		tab.AddRow(sc.Name, sc.Description, strings.Join(sc.Flags, ","))
	}
	res := sim.NewResult("list")
	res.Add(tab)
	return o.sink().Emit(out, res)
}
