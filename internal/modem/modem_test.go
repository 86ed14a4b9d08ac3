package modem

import (
	"math"
	"testing"
	"testing/quick"

	"spinal/internal/impair"
	"spinal/internal/rng"
)

func allModulations(t *testing.T) []Modulation {
	t.Helper()
	mods := []Modulation{NewBPSK()}
	for _, pts := range []int{4, 16, 64, 256} {
		m, err := NewQAM(pts)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	return mods
}

func TestUnitEnergy(t *testing.T) {
	for _, m := range allModulations(t) {
		e, err := AverageEnergy(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("%s average energy = %v, want 1", m.Name(), e)
		}
	}
}

func TestBitsPerSymbol(t *testing.T) {
	want := map[string]int{"BPSK": 1, "QAM-4": 2, "QAM-16": 4, "QAM-64": 6, "QAM-256": 8}
	for _, m := range allModulations(t) {
		if got := m.BitsPerSymbol(); got != want[m.Name()] {
			t.Errorf("%s BitsPerSymbol = %d, want %d", m.Name(), got, want[m.Name()])
		}
	}
}

func TestModulateRejectsBadInput(t *testing.T) {
	q16, _ := NewQAM(16)
	if _, err := q16.Modulate([]byte{0, 1, 1}); err == nil {
		t.Error("non-multiple bit count accepted")
	}
	if _, err := q16.Modulate([]byte{0, 1, 2, 0}); err == nil {
		t.Error("non-bit value accepted")
	}
	if _, err := NewBPSK().Modulate([]byte{3}); err == nil {
		t.Error("BPSK non-bit value accepted")
	}
	if _, err := NewQAM(8); err == nil {
		t.Error("unsupported QAM size accepted")
	}
}

func TestGrayNeighbours(t *testing.T) {
	// In a Gray-mapped QAM-16, adjacent amplitude levels must differ in
	// exactly one bit of the per-dimension label.
	q, _ := NewQAM(16)
	g := q.(*grayQAM)
	// Build amplitude -> gray label map.
	type lv struct {
		amp  float64
		gray int
	}
	var lvs []lv
	for gray := 0; gray < 4; gray++ {
		lvs = append(lvs, lv{amp: g.levels[grayDecode(gray)], gray: gray})
	}
	for i := 0; i < len(lvs); i++ {
		for j := 0; j < len(lvs); j++ {
			if i == j {
				continue
			}
			// Adjacent levels are separated by the minimum spacing.
			if math.Abs(math.Abs(lvs[i].amp-lvs[j].amp)-2*math.Sqrt(3.0/30)) < 1e-9 {
				diff := lvs[i].gray ^ lvs[j].gray
				if diff&(diff-1) != 0 {
					t.Fatalf("adjacent levels %v and %v differ in more than one bit", lvs[i], lvs[j])
				}
			}
		}
	}
}

func TestHardDecisionRoundTripNoiseless(t *testing.T) {
	// With no noise, the sign of every LLR must reproduce the transmitted bit.
	src := rng.New(1)
	for _, m := range allModulations(t) {
		bps := m.BitsPerSymbol()
		bits := make([]byte, bps*64)
		for i := range bits {
			bits[i] = byte(src.Intn(2))
		}
		syms, err := m.Modulate(bits)
		if err != nil {
			t.Fatal(err)
		}
		llr := m.Demodulate(syms, 0.01)
		if len(llr) != len(bits) {
			t.Fatalf("%s: LLR count %d, want %d", m.Name(), len(llr), len(bits))
		}
		for i := range bits {
			hard := byte(0)
			if llr[i] < 0 {
				hard = 1
			}
			if hard != bits[i] {
				t.Fatalf("%s: bit %d flips without noise (llr=%v)", m.Name(), i, llr[i])
			}
		}
	}
}

func TestDemodulateUnderModerateNoise(t *testing.T) {
	// At an SNR comfortably above the modulation's need, hard decisions from
	// LLRs should be nearly error free.
	cases := []struct {
		name  string
		snrDB float64
	}{
		{"BPSK", 10}, {"QAM-4", 13}, {"QAM-16", 20}, {"QAM-64", 26},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(42)
		ch, _ := impair.NewAWGN(c.snrDB, src)
		bits := make([]byte, m.BitsPerSymbol()*500)
		bsrc := rng.New(7)
		for i := range bits {
			bits[i] = byte(bsrc.Intn(2))
		}
		syms, _ := m.Modulate(bits)
		rx := make([]complex128, len(syms))
		ch.CorruptBlock(rx, syms)
		llr := m.Demodulate(rx, ch.NoiseVariance())
		errs := 0
		for i := range bits {
			hard := byte(0)
			if llr[i] < 0 {
				hard = 1
			}
			if hard != bits[i] {
				errs++
			}
		}
		if frac := float64(errs) / float64(len(bits)); frac > 0.01 {
			t.Errorf("%s at %.0f dB: hard-decision BER %v too high", c.name, c.snrDB, frac)
		}
	}
}

func TestLLRMagnitudeScalesWithSNR(t *testing.T) {
	m, _ := NewQAM(16)
	bits := []byte{0, 1, 1, 0}
	syms, _ := m.Modulate(bits)
	lowNoise := m.Demodulate(syms, 0.001)
	highNoise := m.Demodulate(syms, 0.5)
	for i := range bits {
		if math.Abs(lowNoise[i]) <= math.Abs(highNoise[i]) {
			t.Fatalf("LLR magnitude did not grow as noise shrank (bit %d)", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"BPSK", "QAM-4", "QAM-16", "QAM-64", "QPSK"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("QAM-1024"); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func TestGrayDecodeInvertsGrayCode(t *testing.T) {
	prop := func(raw uint8) bool {
		b := int(raw)
		g := b ^ (b >> 1) // binary to Gray
		return grayDecode(g) == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 256}); err != nil {
		t.Fatal(err)
	}
}

func TestLogAdd(t *testing.T) {
	got := logAdd(math.Log(0.3), math.Log(0.2))
	if math.Abs(got-math.Log(0.5)) > 1e-12 {
		t.Fatalf("logAdd = %v, want log(0.5)", got)
	}
	if logAdd(math.Inf(-1), 2) != 2 || logAdd(2, math.Inf(-1)) != 2 {
		t.Fatal("logAdd with -Inf should return the other operand")
	}
}

func BenchmarkQAM64Demodulate(b *testing.B) {
	m, _ := NewQAM(64)
	bits := make([]byte, 648)
	syms, _ := m.Modulate(bits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Demodulate(syms, 0.05)
	}
}
