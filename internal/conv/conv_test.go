package conv

import (
	"testing"
	"testing/quick"

	"spinal/internal/impair"
	"spinal/internal/modem"
	"spinal/internal/rng"
)

func randomBits(src *rng.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(src.Intn(2))
	}
	return b
}

func TestEncodeLengths(t *testing.T) {
	r12 := NewRate12()
	info := make([]byte, 100)
	coded, err := r12.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(coded) != 2*(100+6) {
		t.Fatalf("rate 1/2 coded length = %d, want 212", len(coded))
	}
	if len(coded) != r12.CodedLength(100) {
		t.Fatal("CodedLength disagrees with Encode")
	}

	r34, err := NewPunctured("3/4")
	if err != nil {
		t.Fatal(err)
	}
	coded34, _ := r34.Encode(info)
	if len(coded34) != r34.CodedLength(100) {
		t.Fatalf("punctured coded length %d does not match CodedLength %d",
			len(coded34), r34.CodedLength(100))
	}
	// 3/4 puncturing keeps 4 of every 6 mother bits.
	if want := (2 * 106 * 4) / 6; abs(len(coded34)-want) > 2 {
		t.Fatalf("3/4 coded length = %d, want about %d", len(coded34), want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRateValue(t *testing.T) {
	r12 := NewRate12()
	if r := r12.RateValue(1000); r < 0.49 || r > 0.5 {
		t.Fatalf("rate 1/2 effective rate = %v", r)
	}
	r34, _ := NewPunctured("3/4")
	if r := r34.RateValue(1000); r < 0.73 || r > 0.76 {
		t.Fatalf("rate 3/4 effective rate = %v", r)
	}
}

func TestUnsupportedRate(t *testing.T) {
	if _, err := NewPunctured("7/8"); err == nil {
		t.Error("unsupported rate accepted")
	}
	if _, err := NewPunctured("1/2"); err != nil {
		t.Error("rate 1/2 should be supported")
	}
}

func TestEncodeRejectsNonBits(t *testing.T) {
	r12 := NewRate12()
	if _, err := r12.Encode([]byte{0, 1, 2}); err == nil {
		t.Error("non-bit input accepted")
	}
}

func TestNoiselessRoundTripAllRates(t *testing.T) {
	src := rng.New(1)
	for _, rate := range []string{"1/2", "2/3", "3/4"} {
		c, err := NewPunctured(rate)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			info := randomBits(src, 120)
			coded, err := c.Encode(info)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := c.Decode(HardLLR(coded, 5), len(info))
			if err != nil {
				t.Fatal(err)
			}
			for i := range info {
				if dec[i] != info[i] {
					t.Fatalf("rate %s: noiseless round trip wrong at bit %d", rate, i)
				}
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := NewRate12()
	prop := func(seed uint64, lenRaw uint8) bool {
		n := int(lenRaw%64) + 8
		info := randomBits(rng.New(seed), n)
		coded, err := c.Encode(info)
		if err != nil {
			return false
		}
		dec, err := c.Decode(HardLLR(coded, 4), n)
		if err != nil {
			return false
		}
		for i := range info {
			if dec[i] != info[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	// Rate 1/2 over BPSK at 4 dB: the K=7 code should decode cleanly.
	c := NewRate12()
	mod := modem.NewBPSK()
	src := rng.New(3)
	ch, _ := impair.NewAWGN(4, src)
	bsrc := rng.New(4)
	for trial := 0; trial < 10; trial++ {
		info := randomBits(bsrc, 200)
		coded, _ := c.Encode(info)
		syms, err := mod.Modulate(coded)
		if err != nil {
			t.Fatal(err)
		}
		ch.CorruptBlock(syms, syms)
		llr := mod.Demodulate(syms, ch.NoiseVariance())
		dec, err := c.Decode(llr, len(info))
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for i := range info {
			if dec[i] != info[i] {
				errs++
			}
		}
		if errs != 0 {
			t.Fatalf("trial %d: %d bit errors at 4 dB", trial, errs)
		}
	}
}

func TestViterbiDegradesGracefully(t *testing.T) {
	// At -4 dB the rate-1/2 code is below threshold: expect a substantial
	// bit error rate, but the decoder must still return a full-length guess.
	c := NewRate12()
	mod := modem.NewBPSK()
	src := rng.New(5)
	ch, _ := impair.NewAWGN(-4, src)
	info := randomBits(rng.New(6), 500)
	coded, _ := c.Encode(info)
	syms, _ := mod.Modulate(coded)
	ch.CorruptBlock(syms, syms)
	llr := mod.Demodulate(syms, ch.NoiseVariance())
	dec, err := c.Decode(llr, len(info))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(info) {
		t.Fatalf("decoded length %d", len(dec))
	}
	errs := 0
	for i := range info {
		if dec[i] != info[i] {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("zero errors at -4 dB is implausible; decoder may be cheating")
	}
}

func TestDecodeInputValidation(t *testing.T) {
	c := NewRate12()
	if _, err := c.Decode(make([]float64, 10), 100); err == nil {
		t.Error("wrong LLR count accepted")
	}
	if _, err := c.Decode(nil, 0); err == nil {
		t.Error("zero-length frame accepted")
	}
}

func TestParity(t *testing.T) {
	cases := map[uint32]byte{0: 0, 1: 1, 3: 0, 7: 1, 0b1011011: 1, 0xFFFFFFFF: 0}
	for x, want := range cases {
		if got := parity(x); got != want {
			t.Errorf("parity(%b) = %d, want %d", x, got, want)
		}
	}
}

func BenchmarkViterbiRate12(b *testing.B) {
	c := NewRate12()
	info := randomBits(rng.New(1), 648)
	coded, _ := c.Encode(info)
	llr := HardLLR(coded, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(llr, len(info)); err != nil {
			b.Fatal(err)
		}
	}
}
