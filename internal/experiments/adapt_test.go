package experiments

import (
	"strings"
	"testing"

	"spinal/internal/fading"
)

func TestDefaultAdaptationScenarios(t *testing.T) {
	scs := DefaultAdaptationScenarios()
	if len(scs) < 3 {
		t.Fatalf("expected at least three scenarios, got %d", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" || names[sc.Name] {
			t.Fatalf("scenario names must be unique and non-empty: %q", sc.Name)
		}
		names[sc.Name] = true
		tr, err := sc.Trace(1)
		if err != nil {
			t.Fatalf("scenario %q trace: %v", sc.Name, err)
		}
		if tr.Name() == "" {
			t.Fatalf("scenario %q produced unnamed trace", sc.Name)
		}
	}
}

func TestAdaptationComparisonStaticOnly(t *testing.T) {
	// Keep the unit test cheap: a single static scenario and a small budget.
	scenarios := []AdaptationScenario{{
		Name:          "static 18 dB",
		Trace:         func(seed uint64) (fading.Trace, error) { return fading.Constant{Level: 18}, nil },
		EstimateDelay: 648,
		EstimateErrDB: 1,
	}}
	pts, err := AdaptationComparison(AdaptationConfig{Scenarios: scenarios, SymbolBudget: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	p := pts[0]
	if p.AdaptiveThroughput <= 0 || p.RatelessThroughput <= 0 {
		t.Fatalf("throughputs not positive: %+v", p)
	}
	if p.RatelessThroughput > 7 || p.AdaptiveThroughput > 5 {
		t.Fatalf("throughputs implausibly high: %+v", p)
	}
	table := FormatAdaptation(pts)
	if !strings.Contains(table.String(), "static 18 dB") {
		t.Fatal("formatted table missing scenario name")
	}
}

// TestAdaptationRatelessBeatsReactive gates the adapt scenario on the
// paper's §1 claim: over every default channel, static or time-varying, the
// rateless code delivers more bits per symbol than reactive rate adaptation
// driven by a delayed, noisy SNR estimate, and it never fails a message.
func TestAdaptationRatelessBeatsReactive(t *testing.T) {
	pts, err := AdaptationComparison(AdaptationConfig{SymbolBudget: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(DefaultAdaptationScenarios()) {
		t.Fatalf("points = %d, want one per default scenario", len(pts))
	}
	for _, p := range pts {
		t.Logf("%s: rateless %.3f, reactive %.3f bits/symbol", p.Scenario, p.RatelessThroughput, p.AdaptiveThroughput)
		if p.RatelessThroughput <= p.AdaptiveThroughput {
			t.Errorf("%s: rateless %.3f bits/symbol does not beat reactive %.3f",
				p.Scenario, p.RatelessThroughput, p.AdaptiveThroughput)
		}
		if p.RatelessFailures != 0 {
			t.Errorf("%s: rateless failed %d messages", p.Scenario, p.RatelessFailures)
		}
	}
}

func TestAdaptationComparisonPropagatesTraceErrors(t *testing.T) {
	scenarios := []AdaptationScenario{{
		Name: "broken",
		Trace: func(seed uint64) (fading.Trace, error) {
			return fading.NewWalk(10, 5, 1, seed) // invalid range
		},
	}}
	if _, err := AdaptationComparison(AdaptationConfig{Scenarios: scenarios, SymbolBudget: 2000, Seed: 1}); err == nil {
		t.Fatal("trace construction error not propagated")
	}
}

func TestFixedRateSpinal(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 15
	rateless, err := SpinalRateCurve(cfg, []float64{6, 14})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := FixedRateSpinal(cfg, rateless, 4) // rate 2 bits/symbol
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	low, high := pts[0], pts[1]
	if low.Rate != 2 || high.Rate != 2 {
		t.Fatalf("nominal rate wrong: %+v", pts)
	}
	// At 14 dB (capacity ~4.7) the rate-2 block code should almost always
	// decode; at 6 dB (capacity ~2.6) it should fail noticeably more often.
	if high.FER > 0.2 {
		t.Fatalf("FER at 14 dB = %v, too high", high.FER)
	}
	if low.FER < high.FER {
		t.Fatalf("FER should worsen at lower SNR: %v vs %v", low.FER, high.FER)
	}
	// The rateless rate at 14 dB should beat the fixed-rate throughput, since
	// the fixed rate was chosen for robustness, not for 14 dB.
	if high.RatelessRate <= high.Throughput {
		t.Fatalf("rateless rate %v should exceed fixed-rate throughput %v at 14 dB",
			high.RatelessRate, high.Throughput)
	}
	if s := FormatFixedRate(pts).String(); !strings.Contains(s, "passes") {
		t.Fatal("fixed-rate table missing header")
	}
	if _, err := FixedRateSpinal(cfg, rateless, 0); err == nil {
		t.Fatal("zero passes accepted")
	}
}
