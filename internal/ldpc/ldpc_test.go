package ldpc

import (
	"testing"
	"testing/quick"

	"spinal/internal/impair"
	"spinal/internal/modem"
	"spinal/internal/rng"
)

func allRates() []Rate { return []Rate{Rate12, Rate23, Rate34, Rate56} }

func TestCodeDimensions(t *testing.T) {
	want := map[Rate]int{Rate12: 324, Rate23: 432, Rate34: 486, Rate56: 540}
	for _, r := range allRates() {
		c, err := NewWiFiLike(r)
		if err != nil {
			t.Fatal(err)
		}
		if c.N() != 648 {
			t.Errorf("rate %s: N = %d, want 648", r, c.N())
		}
		if c.K() != want[r] {
			t.Errorf("rate %s: K = %d, want %d", r, c.K(), want[r])
		}
		if c.M() != 648-want[r] {
			t.Errorf("rate %s: M = %d", r, c.M())
		}
		if got := c.RateValue(); got < r.Value()-1e-9 || got > r.Value()+1e-9 {
			t.Errorf("rate %s: RateValue = %v", r, got)
		}
		if c.Rate() != r {
			t.Errorf("rate accessor mismatch")
		}
	}
}

func TestRateStringAndValue(t *testing.T) {
	if Rate12.String() != "1/2" || Rate56.String() != "5/6" {
		t.Error("Rate.String wrong")
	}
	if Rate(99).Value() != 0 {
		t.Error("unknown rate should have zero value")
	}
	if Rate(99).String() == "" {
		t.Error("unknown rate should still format")
	}
	if _, err := NewWiFiLike(Rate(99)); err == nil {
		t.Error("unknown rate accepted")
	}
}

func TestEncodeSatisfiesParityChecks(t *testing.T) {
	for _, r := range allRates() {
		c, err := NewWiFiLike(r)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(r) + 1)
		for trial := 0; trial < 20; trial++ {
			info := make([]byte, c.K())
			for i := range info {
				info[i] = byte(src.Intn(2))
			}
			code, err := c.Encode(info)
			if err != nil {
				t.Fatal(err)
			}
			if len(code) != c.N() {
				t.Fatalf("rate %s: codeword length %d", r, len(code))
			}
			if !c.CheckSyndrome(code) {
				t.Fatalf("rate %s: encoded codeword violates parity checks", r)
			}
			// Systematic property.
			for i := range info {
				if code[i] != info[i] {
					t.Fatalf("rate %s: codeword is not systematic at bit %d", r, i)
				}
			}
		}
	}
}

func TestEncodePropertyAllZeroAndAllOne(t *testing.T) {
	c, _ := NewWiFiLike(Rate12)
	zero := make([]byte, c.K())
	cw, err := c.Encode(zero)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range cw {
		if b != 0 {
			t.Fatalf("all-zero info did not give all-zero codeword (bit %d)", i)
		}
	}
	ones := make([]byte, c.K())
	for i := range ones {
		ones[i] = 1
	}
	cw, err = c.Encode(ones)
	if err != nil {
		t.Fatal(err)
	}
	if !c.CheckSyndrome(cw) {
		t.Fatal("all-ones codeword violates checks")
	}
}

func TestEncodeLinearity(t *testing.T) {
	// LDPC codes are linear: the XOR of two codewords is a codeword.
	c, _ := NewWiFiLike(Rate34)
	prop := func(seedA, seedB uint64) bool {
		ra, rb := rng.New(seedA), rng.New(seedB)
		a := make([]byte, c.K())
		b := make([]byte, c.K())
		for i := range a {
			a[i] = byte(ra.Intn(2))
			b[i] = byte(rb.Intn(2))
		}
		ca, err := c.Encode(a)
		if err != nil {
			return false
		}
		cb, err := c.Encode(b)
		if err != nil {
			return false
		}
		sum := make([]byte, c.N())
		for i := range sum {
			sum[i] = ca[i] ^ cb[i]
		}
		return c.CheckSyndrome(sum)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	c, _ := NewWiFiLike(Rate12)
	if _, err := c.Encode(make([]byte, 10)); err == nil {
		t.Error("short info accepted")
	}
	bad := make([]byte, c.K())
	bad[3] = 2
	if _, err := c.Encode(bad); err == nil {
		t.Error("non-bit info accepted")
	}
}

func TestCheckSyndromeRejectsCorruption(t *testing.T) {
	c, _ := NewWiFiLike(Rate12)
	src := rng.New(5)
	info := make([]byte, c.K())
	for i := range info {
		info[i] = byte(src.Intn(2))
	}
	cw, _ := c.Encode(info)
	for trial := 0; trial < 50; trial++ {
		bad := append([]byte(nil), cw...)
		bad[src.Intn(len(bad))] ^= 1
		if c.CheckSyndrome(bad) {
			t.Fatal("single bit flip not caught by the syndrome")
		}
	}
	if c.CheckSyndrome(cw[:100]) {
		t.Fatal("short word accepted")
	}
}

func TestCheckDegrees(t *testing.T) {
	for _, r := range allRates() {
		c, _ := NewWiFiLike(r)
		min, max := c.CheckDegrees()
		if min < 3 {
			t.Errorf("rate %s: minimum check degree %d is suspiciously low", r, min)
		}
		if max > 30 {
			t.Errorf("rate %s: maximum check degree %d is suspiciously high", r, max)
		}
	}
}

func TestDecoderNoiseless(t *testing.T) {
	for _, r := range allRates() {
		c, _ := NewWiFiLike(r)
		dec, err := NewDecoder(c, 40)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(r) * 7)
		info := make([]byte, c.K())
		for i := range info {
			info[i] = byte(src.Intn(2))
		}
		cw, _ := c.Encode(info)
		llr := make([]float64, c.N())
		for i, b := range cw {
			if b == 0 {
				llr[i] = 10
			} else {
				llr[i] = -10
			}
		}
		res, err := dec.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("rate %s: noiseless decode did not converge", r)
		}
		for i := range info {
			if res.Info[i] != info[i] {
				t.Fatalf("rate %s: noiseless decode wrong at bit %d", r, i)
			}
		}
		if res.Iterations != 1 {
			t.Errorf("rate %s: noiseless decode took %d iterations", r, res.Iterations)
		}
	}
}

func TestDecoderCorrectsNoise(t *testing.T) {
	// Rate-1/2 code over BPSK at 4 dB SNR (Eb/N0 ~ 7 dB) is well inside the
	// waterfall: every frame should decode.
	c, _ := NewWiFiLike(Rate12)
	dec, _ := NewDecoder(c, 40)
	mod := modem.NewBPSK()
	src := rng.New(11)
	ch, _ := impair.NewAWGN(4, src)
	bsrc := rng.New(12)
	for trial := 0; trial < 10; trial++ {
		info := make([]byte, c.K())
		for i := range info {
			info[i] = byte(bsrc.Intn(2))
		}
		cw, _ := c.Encode(info)
		syms, err := mod.Modulate(cw)
		if err != nil {
			t.Fatal(err)
		}
		rx := make([]complex128, len(syms))
		ch.CorruptBlock(rx, syms)
		llr := mod.Demodulate(rx, ch.NoiseVariance())
		res, err := dec.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: decode did not converge at 4 dB", trial)
		}
		for i := range info {
			if res.Info[i] != info[i] {
				t.Fatalf("trial %d: info bit %d wrong after convergence", trial, i)
			}
		}
	}
}

func TestDecoderFailsFarBelowThreshold(t *testing.T) {
	// At -6 dB a rate-1/2 BPSK system is far below capacity; the decoder must
	// not pretend to succeed on most frames.
	c, _ := NewWiFiLike(Rate12)
	dec, _ := NewDecoder(c, 40)
	mod := modem.NewBPSK()
	src := rng.New(21)
	ch, _ := impair.NewAWGN(-6, src)
	bsrc := rng.New(22)
	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		info := make([]byte, c.K())
		for i := range info {
			info[i] = byte(bsrc.Intn(2))
		}
		cw, _ := c.Encode(info)
		syms, _ := mod.Modulate(cw)
		ch.CorruptBlock(syms, syms)
		llr := mod.Demodulate(syms, ch.NoiseVariance())
		res, _ := dec.Decode(llr)
		correct := res.Converged
		if correct {
			for i := range info {
				if res.Info[i] != info[i] {
					correct = false
					break
				}
			}
		}
		if !correct {
			failures++
		}
	}
	if failures < trials/2 {
		t.Fatalf("only %d/%d frames failed at -6 dB; decoder is suspiciously optimistic", failures, trials)
	}
}

func TestDecoderHigherOrderModulation(t *testing.T) {
	// Rate 3/4 over QAM-16 at 18 dB should decode reliably (spectral
	// efficiency 3 bits/symbol vs capacity ~6).
	c, _ := NewWiFiLike(Rate34)
	dec, _ := NewDecoder(c, 40)
	mod, _ := modem.NewQAM(16)
	src := rng.New(31)
	ch, _ := impair.NewAWGN(18, src)
	bsrc := rng.New(32)
	for trial := 0; trial < 5; trial++ {
		info := make([]byte, c.K())
		for i := range info {
			info[i] = byte(bsrc.Intn(2))
		}
		cw, _ := c.Encode(info)
		syms, err := mod.Modulate(cw)
		if err != nil {
			t.Fatal(err)
		}
		ch.CorruptBlock(syms, syms)
		llr := mod.Demodulate(syms, ch.NoiseVariance())
		res, _ := dec.Decode(llr)
		if !res.Converged {
			t.Fatalf("trial %d: QAM-16 rate-3/4 frame failed at 18 dB", trial)
		}
		for i := range info {
			if res.Info[i] != info[i] {
				t.Fatalf("trial %d: wrong info bit %d", trial, i)
			}
		}
	}
}

func TestDecoderInputValidation(t *testing.T) {
	c, _ := NewWiFiLike(Rate12)
	dec, _ := NewDecoder(c, 40)
	if _, err := dec.Decode(make([]float64, 10)); err == nil {
		t.Error("short LLR vector accepted")
	}
	if _, err := NewDecoder(nil, 40); err == nil {
		t.Error("nil code accepted")
	}
	d2, err := NewDecoder(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.MaxIterations() != DefaultIterations {
		t.Errorf("default iterations = %d", d2.MaxIterations())
	}
}

func BenchmarkDecodeRate12BPSK(b *testing.B) {
	c, _ := NewWiFiLike(Rate12)
	dec, _ := NewDecoder(c, 40)
	mod := modem.NewBPSK()
	src := rng.New(1)
	ch, _ := impair.NewAWGN(2, src)
	info := make([]byte, c.K())
	cw, _ := c.Encode(info)
	syms, _ := mod.Modulate(cw)
	ch.CorruptBlock(syms, syms)
	llr := mod.Demodulate(syms, ch.NoiseVariance())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(llr); err != nil {
			b.Fatal(err)
		}
	}
}
