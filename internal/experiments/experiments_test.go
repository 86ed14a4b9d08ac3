package experiments

import (
	"math"
	"strings"
	"testing"

	"spinal/internal/ldpc"
)

// quickCfg returns a configuration small enough for unit tests while keeping
// the Figure 2 structure (24-bit messages, k=8, c=10, B=16).
func quickCfg() SpinalConfig {
	cfg := Figure2Config()
	cfg.Trials = 25
	cfg.MaxPasses = 300
	return cfg
}

func TestSNRSweep(t *testing.T) {
	s, err := SNRSweep(-10, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-10, 0, 10, 20, 30, 40}
	if len(s) != len(want) {
		t.Fatalf("sweep = %v", s)
	}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-9 {
			t.Fatalf("sweep[%d] = %v", i, s[i])
		}
	}
	if _, err := SNRSweep(0, 10, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := SNRSweep(10, 0, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if f2, err := Figure2SNRs(5); err != nil || f2[0] != -10 || f2[len(f2)-1] != 40 {
		t.Errorf("Figure2SNRs wrong: %v %v", f2, err)
	}
}

func TestBoundsCurveOrdering(t *testing.T) {
	snrs, _ := SNRSweep(-10, 40, 5)
	pts, err := Figure2Bounds(snrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(snrs) {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.FiniteBlock > p.Shannon+1e-9 {
			t.Errorf("finite-blocklength bound above capacity at %v dB", p.SNRdB)
		}
		if p.Theorem1 > p.Shannon+1e-9 {
			t.Errorf("Theorem 1 bound above capacity at %v dB", p.SNRdB)
		}
		if p.Shannon < 0 || p.FiniteBlock < 0 || p.Theorem1 < 0 {
			t.Errorf("negative bound at %v dB", p.SNRdB)
		}
	}
	if _, err := BoundsCurve(snrs, 0, 1e-4); err == nil {
		t.Error("invalid block length accepted")
	}
	if _, err := BoundsCurve(snrs, 24, 0); err == nil {
		t.Error("invalid error probability accepted")
	}
}

func TestSpinalRateAtModerateSNR(t *testing.T) {
	cfg := quickCfg()
	pt, err := SpinalRateAtSNR(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Failures != 0 {
		t.Fatalf("%d/%d messages failed at 10 dB", pt.Failures, pt.Trials)
	}
	if pt.Rate <= 1.5 || pt.Rate > pt.Capacity {
		t.Fatalf("rate at 10 dB = %v (capacity %v); expected a value in (1.5, capacity]", pt.Rate, pt.Capacity)
	}
	if pt.Trials != cfg.Trials {
		t.Fatalf("trials = %d", pt.Trials)
	}
}

func TestSpinalRateCurveIncreasesWithSNR(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 15
	pts, err := SpinalRateCurve(cfg, []float64{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].Rate < pts[1].Rate && pts[1].Rate < pts[2].Rate) {
		t.Fatalf("rates not increasing with SNR: %v %v %v", pts[0].Rate, pts[1].Rate, pts[2].Rate)
	}
	for _, p := range pts {
		// Genie-terminated measurement of a 24-bit message can land a hair
		// above capacity at low SNR (a finite-blocklength artifact also
		// present in the paper's methodology); allow a small absolute slack.
		if p.Rate > p.Capacity+0.15 {
			t.Fatalf("rate %v exceeds capacity %v at %v dB", p.Rate, p.Capacity, p.SNRdB)
		}
	}
}

func TestSpinalPuncturingExceedsKAtHighSNR(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 30
	pt, err := SpinalRateAtSNR(cfg, 35)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rate <= float64(cfg.K) {
		t.Fatalf("punctured rate at 35 dB = %v, want > k = %d", pt.Rate, cfg.K)
	}
}

func TestSpinalInvalidConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.Mapper = "bogus"
	if _, err := SpinalRateAtSNR(cfg, 10); err == nil {
		t.Error("bogus mapper accepted")
	}
	cfg = quickCfg()
	cfg.Schedule = "bogus"
	if _, err := SpinalRateAtSNR(cfg, 10); err == nil {
		t.Error("bogus schedule accepted")
	}
}

func TestBeamWidthSweepScaleDown(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 15
	pts, err := BeamWidthSweep(cfg, 10, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Rate < pts[0].Rate {
		t.Fatalf("B=16 rate %v below B=1 rate %v", pts[1].Rate, pts[0].Rate)
	}
	if _, err := BeamWidthSweep(cfg, 10, []int{0}); err == nil {
		t.Error("zero beam accepted")
	}
}

func TestQuantizationSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 15
	pts, err := QuantizationSweep(cfg, 20, []int{4, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Rate < pts[0].Rate {
		t.Fatalf("14-bit ADC rate %v below 4-bit rate %v", pts[1].Rate, pts[0].Rate)
	}
}

func TestMapperComparison(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 10
	curves, err := MapperComparison(cfg, []float64{15}, []string{"linear", "gaussian"})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for name, pts := range curves {
		if len(pts) != 1 || pts[0].Rate <= 0 {
			t.Fatalf("mapper %s produced no usable point: %+v", name, pts)
		}
	}
}

func TestPuncturingComparison(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 20
	punct, seq, err := PuncturingComparison(cfg, []float64{35})
	if err != nil {
		t.Fatal(err)
	}
	if len(punct) != 1 || len(seq) != 1 {
		t.Fatal("wrong number of points")
	}
	// The sequential schedule cannot exceed k bits/symbol; the punctured one
	// should at high SNR.
	if seq[0].Rate > float64(cfg.K)+1e-9 {
		t.Fatalf("sequential schedule rate %v exceeds k", seq[0].Rate)
	}
	if punct[0].Rate <= seq[0].Rate {
		t.Fatalf("puncturing did not help at 35 dB: %v vs %v", punct[0].Rate, seq[0].Rate)
	}
}

func TestTheorem1Gap(t *testing.T) {
	cfg := quickCfg()
	cfg.Trials = 15
	pts, err := Theorem1Gap(cfg, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Rate > p.Capacity {
			t.Fatalf("rate above capacity at %v dB", p.SNRdB)
		}
		if p.Guarantee > p.Capacity {
			t.Fatalf("guarantee above capacity at %v dB", p.SNRdB)
		}
		if math.Abs(p.GapToCap-(p.Capacity-p.Rate)) > 1e-9 {
			t.Fatal("gap field inconsistent")
		}
	}
}

func TestSpinalBSCCurve(t *testing.T) {
	cfg := SpinalConfig{MessageBits: 16, K: 4, BeamWidth: 16, Trials: 8, MaxPasses: 400, Seed: 77}
	pts, err := SpinalBSCCurve(cfg, []float64{0.02, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Failures > 0 {
			t.Fatalf("BSC(%v): %d failures", p.P, p.Failures)
		}
		if p.Rate <= 0 || p.Rate > p.Capacity+1e-9 {
			t.Fatalf("BSC(%v): rate %v vs capacity %v", p.P, p.Rate, p.Capacity)
		}
	}
	if pts[0].Rate <= pts[1].Rate {
		t.Fatalf("rate at p=0.02 (%v) should exceed rate at p=0.2 (%v)", pts[0].Rate, pts[1].Rate)
	}
}

func TestLDPCThroughputCurve(t *testing.T) {
	cfg := LDPCConfig{Rate: ldpc.Rate12, Modulation: "BPSK", Frames: 25, Seed: 9}
	pts, err := LDPCThroughputCurve(cfg, []float64{-6, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	low, high := pts[0], pts[1]
	if high.Throughput < 0.45 || high.FER > 0.1 {
		t.Fatalf("rate-1/2 BPSK at 6 dB should be error free: %+v", high)
	}
	if low.Throughput > 0.3 {
		t.Fatalf("rate-1/2 BPSK at -6 dB should mostly fail: %+v", low)
	}
	if high.PeakRate != 0.5 {
		t.Fatalf("peak rate = %v", high.PeakRate)
	}
}

func TestLDPCCurveRejectsUnknownModulation(t *testing.T) {
	cfg := LDPCConfig{Rate: ldpc.Rate12, Modulation: "QAM-1024", Frames: 5}
	if _, err := LDPCThroughputCurve(cfg, []float64{10}); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func TestFigure2LDPCConfigs(t *testing.T) {
	cfgs := Figure2LDPCConfigs()
	if len(cfgs) != 8 {
		t.Fatalf("Figure 2 uses 8 LDPC baselines, got %d", len(cfgs))
	}
	labels := map[string]bool{}
	for _, c := range cfgs {
		if labels[c.Label()] {
			t.Fatalf("duplicate baseline %s", c.Label())
		}
		labels[c.Label()] = true
		if _, err := ldpc.NewWiFiLike(c.Rate); err != nil {
			t.Fatalf("baseline %s has invalid rate", c.Label())
		}
	}
}

func TestConvThroughputCurve(t *testing.T) {
	cfg := ConvConfig{Rate: "1/2", Modulation: "BPSK", FrameBits: 96, Frames: 20, Seed: 5}
	pts, err := ConvThroughputCurve(cfg, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].FER > 0.1 || pts[0].Throughput < 0.35 {
		t.Fatalf("K=7 rate-1/2 at 6 dB should be nearly error free: %+v", pts[0])
	}
	if _, err := ConvThroughputCurve(ConvConfig{Rate: "9/10"}, []float64{6}); err == nil {
		t.Error("unsupported convolutional rate accepted")
	}
}

func TestHARQThroughputCurve(t *testing.T) {
	cfg := HARQConfig{Rate: ldpc.Rate12, Modulation: "QAM-16", Frames: 15, Seed: 9}
	pts, err := HARQThroughputCurve(cfg, []float64{6, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	low, high := pts[0], pts[1]
	// Above the single-shot threshold the scheme runs at its peak rate.
	if high.Throughput < 1.8 || high.FER > 0.1 {
		t.Fatalf("HARQ at 14 dB should deliver ~2 bits/symbol: %+v", high)
	}
	// Below the threshold Chase combining still delivers, at reduced rate.
	if low.Throughput <= 0.3 || low.Throughput >= high.Throughput {
		t.Fatalf("HARQ at 6 dB should deliver a reduced but positive rate: %+v", low)
	}
	if _, err := HARQThroughputCurve(HARQConfig{Rate: ldpc.Rate12, Modulation: "nope"}, []float64{10}); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func TestFountainOverhead(t *testing.T) {
	cfg := FountainConfig{K: 40, BlockSize: 16, Trials: 5, Erasures: []float64{0, 0.3}, Seed: 3}
	pts, err := FountainOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Overhead < 1 || p.Overhead > 2.5 {
			t.Fatalf("LT overhead at p=%v is %v, outside plausible range", p.ErasureProb, p.Overhead)
		}
	}
	if pts[1].SentPerBlock <= pts[0].SentPerBlock {
		t.Fatalf("transmissions should grow with erasures: %v vs %v", pts[1].SentPerBlock, pts[0].SentPerBlock)
	}
	if _, err := FountainOverhead(FountainConfig{K: -1, BlockSize: 16, Trials: 5, Erasures: []float64{0}}); err == nil {
		t.Error("invalid k accepted")
	}
	if _, err := FountainOverhead(FountainConfig{K: 10, BlockSize: 16, Trials: 5, Erasures: []float64{1.5}}); err == nil {
		t.Error("invalid erasure probability accepted")
	}
}

// TestFountainConfigDefaults pins the withDefaults contract of the satellite
// config-struct conversion.
func TestFountainConfigDefaults(t *testing.T) {
	d := FountainConfig{}.withDefaults()
	if d.K != 256 || d.BlockSize != 64 || d.Trials != 20 || d.Seed != 1 || len(d.Erasures) != 5 {
		t.Fatalf("defaults drifted: %+v", d)
	}
	override := FountainConfig{K: 10, Trials: 3}.withDefaults()
	if override.K != 10 || override.Trials != 3 || override.BlockSize != 64 {
		t.Fatalf("overrides not respected: %+v", override)
	}
}

func TestResultFormatters(t *testing.T) {
	rate := []RatePoint{{SNRdB: 10, Rate: 3.2, Capacity: 3.46, Trials: 5}}
	if s := FormatRateCurve("spinal", rate).String(); !strings.Contains(s, "3.200") {
		t.Error("rate table missing value")
	}
	bounds := []BoundPoint{{SNRdB: 10, Shannon: 3.46, FiniteBlock: 2.8, Theorem1: 3.2}}
	if s := FormatBounds(bounds).String(); !strings.Contains(s, "2.800") {
		t.Error("bounds table missing value")
	}
	tp := []ThroughputPoint{{SNRdB: 5, Throughput: 0.5, PeakRate: 0.5, FER: 0, Conf95: 0.01, Frames: 10}}
	s := FormatThroughput("ldpc", tp).String()
	if !strings.Contains(s, "0.500") {
		t.Error("throughput table missing value")
	}
	if !strings.Contains(s, "conf95") || !strings.Contains(s, "0.010") {
		t.Errorf("throughput table missing confidence interval column:\n%s", s)
	}
	beams := []BeamPoint{{BeamWidth: 4, RatePoint: rate[0]}}
	if s := FormatBeamSweep(beams).String(); !strings.Contains(s, "4") {
		t.Error("beam table missing value")
	}
	adc := []ADCPoint{{Bits: 14, RatePoint: rate[0]}}
	if s := FormatADCSweep(adc).String(); !strings.Contains(s, "14") {
		t.Error("adc table missing value")
	}
	bsc := []BSCPoint{{P: 0.1, Rate: 0.4, Capacity: 0.53, Trials: 3}}
	if s := FormatBSC(bsc).String(); !strings.Contains(s, "0.400") {
		t.Error("bsc table missing value")
	}
	th1 := []Theorem1Point{{SNRdB: 10, Rate: 3, Guarantee: 3.2, Capacity: 3.46, GapToCap: 0.46}}
	if s := FormatTheorem1(th1).String(); !strings.Contains(s, "3.200") {
		t.Error("theorem1 table missing value")
	}
	lt := []OverheadPoint{{ErasureProb: 0.3, Overhead: 1.2, SentPerBlock: 1.7, Trials: 5}}
	if s := FormatFountain(lt).String(); !strings.Contains(s, "1.200") {
		t.Error("fountain table missing value")
	}
}
