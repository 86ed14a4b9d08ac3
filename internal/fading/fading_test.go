package fading

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantTrace(t *testing.T) {
	c := Constant{Level: 17}
	for _, i := range []int{0, 1, 100, 1 << 20} {
		if c.SNRdB(i) != 17 {
			t.Fatalf("constant trace changed at %d", i)
		}
	}
	if c.Name() == "" {
		t.Error("empty name")
	}
}

func TestGilbertElliottTwoLevels(t *testing.T) {
	g, err := NewGilbertElliott(25, 5, 200, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	seenGood, seenBad := false, false
	for i := 0; i < 20000; i++ {
		v := g.SNRdB(i)
		switch v {
		case 25:
			seenGood = true
		case 5:
			seenBad = true
		default:
			t.Fatalf("unexpected SNR level %v", v)
		}
	}
	if !seenGood || !seenBad {
		t.Fatal("trace never visited both states")
	}
	// Time share of the good state should be roughly dwellGood/(dwellGood+dwellBad).
	good := 0
	for i := 0; i < 20000; i++ {
		if g.SNRdB(i) == 25 {
			good++
		}
	}
	frac := float64(good) / 20000
	if frac < 0.5 || frac > 0.85 {
		t.Fatalf("good-state fraction %v far from 2/3", frac)
	}
}

func TestGilbertElliottDeterministic(t *testing.T) {
	a, _ := NewGilbertElliott(20, 0, 50, 50, 9)
	b, _ := NewGilbertElliott(20, 0, 50, 50, 9)
	for i := 0; i < 5000; i++ {
		if a.SNRdB(i) != b.SNRdB(i) {
			t.Fatalf("traces with the same seed diverged at %d", i)
		}
	}
	if _, err := NewGilbertElliott(20, 0, 0, 50, 1); err == nil {
		t.Error("zero dwell accepted")
	}
}

func TestGilbertElliottRandomAccessConsistent(t *testing.T) {
	g, _ := NewGilbertElliott(20, 0, 30, 30, 4)
	// Reading far ahead then looking back must give the same values as a
	// sequential scan of a fresh trace with the same seed.
	_ = g.SNRdB(999)
	fresh, _ := NewGilbertElliott(20, 0, 30, 30, 4)
	for i := 0; i < 1000; i++ {
		if g.SNRdB(i) != fresh.SNRdB(i) {
			t.Fatalf("random access changed the trace at %d", i)
		}
	}
}

func TestRayleighBlockStatistics(t *testing.T) {
	r, err := NewRayleighBlock(20, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Constant within a coherence block.
	for b := 0; b < 50; b++ {
		first := r.SNRdB(b * 10)
		for i := 1; i < 10; i++ {
			if r.SNRdB(b*10+i) != first {
				t.Fatalf("SNR changed within coherence block %d", b)
			}
		}
	}
	// Average linear gain should be around 1 (0 dB offset) over many blocks.
	var sum float64
	const blocks = 4000
	for b := 0; b < blocks; b++ {
		sum += math.Pow(10, (r.SNRdB(b*10)-20)/10)
	}
	mean := sum / blocks
	if mean < 0.85 || mean > 1.15 {
		t.Fatalf("mean Rayleigh power gain %v, want about 1", mean)
	}
	if _, err := NewRayleighBlock(20, 0, 1); err == nil {
		t.Error("zero coherence accepted")
	}
}

func TestWalkBounds(t *testing.T) {
	w, err := NewWalk(0, 30, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := w.SNRdB(0)
	for i := 1; i < 20000; i++ {
		v := w.SNRdB(i)
		if v < 0 || v > 30 {
			t.Fatalf("walk escaped its bounds at %d: %v", i, v)
		}
		if math.Abs(v-prev) > 0.5+1e-9 {
			t.Fatalf("walk jumped by %v at %d", v-prev, i)
		}
		prev = v
	}
	if _, err := NewWalk(10, 5, 1, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewWalk(0, 10, 0, 1); err == nil {
		t.Error("zero step accepted")
	}
}

func TestEstimatorDelayAndNoise(t *testing.T) {
	// A step trace: SNR jumps from 20 to 0 dB at symbol 1000. With a delay of
	// 200 symbols and no measurement error, the estimator must report the old
	// value until symbol 1200.
	step := stepTrace{at: 1000, before: 20, after: 0}
	est, err := NewEstimator(step, 200, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Estimate(1100); got != 20 {
		t.Fatalf("estimate at 1100 = %v, want the stale 20 dB", got)
	}
	if got := est.Estimate(1300); got != 0 {
		t.Fatalf("estimate at 1300 = %v, want 0 dB", got)
	}
	// With measurement error the estimates should scatter around the truth.
	noisy, _ := NewEstimator(Constant{Level: 10}, 0, 2, 6)
	var sum, sumSq float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := noisy.Estimate(i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.3 || std < 1 || std > 3 {
		t.Fatalf("noisy estimator mean %v std %v, want about 10 and 2", mean, std)
	}
	if _, err := NewEstimator(nil, 0, 0, 1); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewEstimator(step, -1, 0, 1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestEstimatorIsConsistentPerIndex(t *testing.T) {
	est, _ := NewEstimator(Constant{Level: 15}, 0, 3, 9)
	prop := func(raw uint16) bool {
		i := int(raw % 500)
		return est.Estimate(i) == est.Estimate(i)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// stepTrace is a test helper whose SNR changes once at a known index.
type stepTrace struct {
	at            int
	before, after float64
}

func (s stepTrace) SNRdB(i int) float64 {
	if i < s.at {
		return s.before
	}
	return s.after
}

func (s stepTrace) Name() string { return "step" }
