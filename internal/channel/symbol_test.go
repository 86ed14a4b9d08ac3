package channel_test

import (
	"math"
	"testing"
	"testing/quick"

	"spinal/internal/channel"
	"spinal/internal/fading"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// The symbol channels are impair pipelines; these tests check them through
// the SymbolChannel contract the rest of the repo codes against.

// Interface guard: every pipeline is a symbol and a block channel.
var (
	_ channel.SymbolChannel = (*impair.Pipeline)(nil)
	_ channel.BlockChannel  = (*impair.Pipeline)(nil)
)

func TestAWGNNoisePower(t *testing.T) {
	p, err := impair.NewAWGN(10, rng.New(1)) // sigma2 = 0.1
	if err != nil {
		t.Fatal(err)
	}
	var ch channel.SymbolChannel = p
	const n = 100000
	var power float64
	for i := 0; i < n; i++ {
		y := ch.Corrupt(0)
		power += real(y)*real(y) + imag(y)*imag(y)
	}
	if avg := power / n; math.Abs(avg-0.1) > 0.005 {
		t.Fatalf("noise power = %v, want 0.1", avg)
	}
}

func TestAWGNMeanPreserved(t *testing.T) {
	p, err := impair.NewAWGN(20, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var ch channel.SymbolChannel = p
	const n = 50000
	var sumI, sumQ float64
	x := complex(0.7, -0.3)
	for i := 0; i < n; i++ {
		y := ch.Corrupt(x)
		sumI += real(y)
		sumQ += imag(y)
	}
	if math.Abs(sumI/n-0.7) > 0.01 || math.Abs(sumQ/n+0.3) > 0.01 {
		t.Fatalf("mean shifted: %v %v", sumI/n, sumQ/n)
	}
}

func TestAWGNInvalid(t *testing.T) {
	src := rng.New(3)
	for _, snr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -4000} {
		if _, err := impair.NewAWGN(snr, src); err == nil {
			t.Errorf("SNR %v dB accepted", snr)
		}
	}
	if _, err := impair.NewAWGN(1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestAWGNSigmaAndSNR(t *testing.T) {
	p, err := impair.NewAWGN(20, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "awgn(snr=20)" {
		t.Fatalf("name = %q", p.Name())
	}
	if math.Abs(p.NoiseVariance()-0.01) > 1e-12 {
		t.Fatalf("NoiseVariance = %v, want 0.01", p.NoiseVariance())
	}
}

// quantizer returns the §5 front end at so high an SNR that its output is the
// ADC applied to the input, together with the ADC's full-scale limit.
func quantizer(t *testing.T, bits int) (channel.SymbolChannel, float64) {
	t.Helper()
	p, err := impair.NewQuantizedAWGN(1000, bits, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return p, math.Sqrt(1.5) + 4*math.Sqrt(p.NoiseVariance()/2)
}

func TestQuantizerRoundsToLevel(t *testing.T) {
	q, limit := quantizer(t, 4) // 16 levels
	step := 2 * limit / 16
	prop := func(raw int16) bool {
		v := float64(raw) / 10000 // in [-3.2768, 3.2767]
		out := real(q.Corrupt(complex(v, 0)))
		// Output must be a representable level: -limit + (i+0.5)*step.
		idx := (out + limit) / step
		if math.Abs(idx-math.Floor(idx)-0.5) > 1e-9 {
			return false
		}
		// Output must be within one step of the clipped input.
		clipped := math.Max(-limit, math.Min(limit, v))
		return math.Abs(out-clipped) <= step
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerHighResolutionIsTransparent(t *testing.T) {
	q, limit := quantizer(t, 14)
	for _, v := range []float64{-1.2, -0.5, 0, 0.001, 1.2} {
		out := real(q.Corrupt(complex(v, v)))
		if math.Abs(out-v) > 2*limit/(1<<14) {
			t.Fatalf("14-bit quantization error too large at %v: %v", v, out-v)
		}
	}
}

func TestQuantizerClipping(t *testing.T) {
	q, limit := quantizer(t, 8)
	out := q.Corrupt(complex(100, -100))
	if real(out) > limit || imag(out) < -limit {
		t.Fatalf("quantizer did not clip: %v", out)
	}
}

func TestQuantizerInvalid(t *testing.T) {
	src := rng.New(6)
	for _, bits := range []int{0, 40} {
		if _, err := impair.NewQuantizedAWGN(10, bits, src); err == nil {
			t.Errorf("%d-bit quantizer accepted", bits)
		}
	}
	// The ADC limit derives from the SNR, so a bad SNR is a bad limit.
	if _, err := impair.NewQuantizedAWGN(math.NaN(), 8, src); err == nil {
		t.Error("NaN SNR accepted")
	}
}

func TestQuantizedAWGN(t *testing.T) {
	p, err := impair.NewQuantizedAWGN(20, 14, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.NoiseVariance()-0.01) > 1e-12 {
		t.Fatalf("NoiseVariance = %v", p.NoiseVariance())
	}
	var ch channel.SymbolChannel = p
	// With 14 bits the quantization error should be tiny relative to noise.
	var maxDev float64
	x := complex(0.5, -0.5)
	for i := 0; i < 1000; i++ {
		y := ch.Corrupt(x)
		maxDev = math.Max(maxDev, math.Abs(real(y-x))+math.Abs(imag(y-x)))
	}
	if maxDev > 1.0 {
		t.Fatalf("deviation unexpectedly large: %v", maxDev)
	}
}

func TestRayleighBlockInvalid(t *testing.T) {
	s, err := impair.Parse("rayleigh(avg=10,tc=0)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(14); err == nil {
		t.Error("zero block length accepted")
	}
	tr, err := fading.NewRayleighBlock(10, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := impair.NewTraceNoise(tr, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestNoiseVariance(t *testing.T) {
	for snr, want := range map[float64]float64{0: 1, 10: 0.1} {
		p, err := impair.NewAWGN(snr, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.NoiseVariance()-want) > 1e-12 {
			t.Errorf("NoiseVariance(%v dB) = %v, want %v", snr, p.NoiseVariance(), want)
		}
	}
}
