package core

import (
	"math"
	"slices"
	"testing"

	"spinal/internal/constellation"
	"spinal/internal/rng"
)

func testMessage(seed uint64, bits int) []byte {
	return RandomMessage(rng.New(seed), bits)
}

func TestEncoderDeterministic(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(1, p.MessageBits)
	e1, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEncoder(p, msg)
	for pass := 0; pass < 4; pass++ {
		for s := 0; s < e1.NumSegments(); s++ {
			if e1.Symbol(s, pass) != e2.Symbol(s, pass) {
				t.Fatalf("symbol (%d,%d) differs between identical encoders", s, pass)
			}
		}
	}
}

func TestEncoderSpineChaining(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(2, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	spine := e.Spine()
	if len(spine) != 3 {
		t.Fatalf("spine length = %d, want 3", len(spine))
	}
	// Recompute manually: s_t = h(s_{t-1}, M_t).
	f := p.family()
	s := uint64(0)
	for i := 0; i < 3; i++ {
		s = f.Next(s, segmentOf(p, msg, i))
		if s != spine[i] {
			t.Fatalf("spine[%d] mismatch", i)
		}
	}
}

func TestEncoderPrefixProperty(t *testing.T) {
	// Two messages that agree on their first segment share the first spine
	// value but (with overwhelming probability) differ afterwards.
	p := DefaultParams()
	msgA := []byte{0xAB, 0x00, 0x00}
	msgB := []byte{0xAB, 0xFF, 0x00}
	ea, _ := NewEncoder(p, msgA)
	eb, _ := NewEncoder(p, msgB)
	sa, sb := ea.Spine(), eb.Spine()
	if sa[0] != sb[0] {
		t.Fatal("first spine value should match for identical first segments")
	}
	if sa[1] == sb[1] || sa[2] == sb[2] {
		t.Fatal("later spine values should differ for different messages")
	}
}

func TestEncoderSingleBitChangePropagates(t *testing.T) {
	// Nonlinearity property from §4: messages differing in one bit produce
	// very different symbol sequences from the first affected segment on.
	p := DefaultParams()
	msgA := testMessage(3, p.MessageBits)
	msgB := append([]byte(nil), msgA...)
	msgB[0] ^= 0x01 // flip message bit 0 (first segment)
	ea, _ := NewEncoder(p, msgA)
	eb, _ := NewEncoder(p, msgB)
	var dist float64
	for pass := 0; pass < 8; pass++ {
		for s := 0; s < ea.NumSegments(); s++ {
			d := ea.Symbol(s, pass) - eb.Symbol(s, pass)
			dist += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	// With unit-energy symbols and 24 independent symbol pairs, the expected
	// squared distance is about 2 per symbol; anything tiny means the change
	// failed to propagate.
	if dist < 10 {
		t.Fatalf("single-bit change produced tiny codeword distance %v", dist)
	}
}

func TestEncoderSymbolEnergy(t *testing.T) {
	// Average symbol energy over many symbols should be close to 1 (the
	// constellation normalization), which makes SNR = 1/sigma^2.
	p := DefaultParams()
	src := rng.New(4)
	var energy float64
	count := 0
	for m := 0; m < 40; m++ {
		msg := RandomMessage(src, p.MessageBits)
		e, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 10; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				x := e.Symbol(s, pass)
				energy += real(x)*real(x) + imag(x)*imag(x)
				count++
			}
		}
	}
	avg := energy / float64(count)
	if math.Abs(avg-1) > 0.05 {
		t.Fatalf("average symbol energy = %v, want about 1", avg)
	}
}

func TestEncoderPassSymbols(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(5, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	pass := e.Pass(2)
	if len(pass) != e.NumSegments() {
		t.Fatalf("Pass length = %d", len(pass))
	}
	for s := range pass {
		if pass[s] != e.Symbol(s, 2) {
			t.Fatalf("Pass()[%d] disagrees with Symbol", s)
		}
	}
}

func TestEncoderDifferentPassesDiffer(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(6, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	same := 0
	for pass := 1; pass < 20; pass++ {
		if e.Symbol(0, pass) == e.Symbol(0, 0) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d of 19 passes repeated the pass-0 symbol", same)
	}
}

func TestEncoderCodedBits(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 16, Seed: 7}
	msg := testMessage(7, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	ones := 0
	total := 0
	for pass := 0; pass < 64; pass++ {
		bits := e.BitPass(pass)
		if len(bits) != e.NumSegments() {
			t.Fatalf("BitPass length = %d", len(bits))
		}
		for _, b := range bits {
			if b != 0 && b != 1 {
				t.Fatalf("coded bit out of alphabet: %d", b)
			}
			if b == 1 {
				ones++
			}
			total++
		}
	}
	frac := float64(ones) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("coded bits not balanced: fraction of ones = %v", frac)
	}
}

func TestEncoderRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := NewEncoder(p, []byte{1, 2}); err == nil {
		t.Error("short message accepted")
	}
	if _, err := NewEncoder(p, []byte{1, 2, 3, 4}); err == nil {
		t.Error("long message accepted")
	}
	bad := p
	bad.K = 0
	if _, err := NewEncoder(bad, []byte{1, 2, 3}); err == nil {
		t.Error("invalid params accepted")
	}
	odd := Params{K: 8, C: 10, MessageBits: 20, Seed: 1}
	if _, err := NewEncoder(odd, []byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("message with stray padding bits accepted")
	}
}

func TestEncoderSeedChangesSymbols(t *testing.T) {
	pa := DefaultParams()
	pb := pa
	pb.Seed = pa.Seed + 1
	msg := testMessage(8, pa.MessageBits)
	ea, _ := NewEncoder(pa, msg)
	eb, _ := NewEncoder(pb, msg)
	if ea.Symbol(0, 0) == eb.Symbol(0, 0) && ea.Symbol(1, 0) == eb.Symbol(1, 0) &&
		ea.Symbol(2, 0) == eb.Symbol(2, 0) {
		t.Fatal("different seeds produced identical first pass")
	}
}

func TestEncodeSymbolsHelper(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(9, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	sched, _ := NewSequentialSchedule(e.NumSegments())
	syms, poss, err := EncodeSymbols(e, sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) != 7 || len(poss) != 7 {
		t.Fatalf("EncodeSymbols returned %d/%d entries", len(syms), len(poss))
	}
	for i := range syms {
		if syms[i] != e.SymbolAt(poss[i]) {
			t.Fatalf("symbol %d does not match its position", i)
		}
	}
	if _, _, err := EncodeSymbols(e, sched, -1); err == nil {
		t.Error("negative count accepted")
	}
}

func BenchmarkEncoderSpine(b *testing.B) {
	p := Params{K: 8, C: 10, MessageBits: 1024, Seed: 1}
	msg := testMessage(1, p.MessageBits)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEncoder(p, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderSymbols(b *testing.B) {
	p := Params{K: 8, C: 10, MessageBits: 1024, Seed: 1}
	msg := testMessage(1, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	nseg := e.NumSegments()
	b.ResetTimer()
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += e.Symbol(i%nseg, i/nseg)
	}
	_ = acc
}

// TestSharedMapperUnchanged pins that encoding and decoding leave the shared
// default mapper's table as they found it: every code with the same C reads
// that one table, so a write through DimTable would corrupt them all.
func TestSharedMapperUnchanged(t *testing.T) {
	p := DefaultParams()
	m, err := constellation.NewLinear(p.C)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.(constellation.TableMapper).DimTable()
	want := slices.Clone(tab)
	msg := testMessage(3, p.MessageBits)
	e, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observeNoiseless(t, e, 2)
	d, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(obs); err != nil {
		t.Fatal(err)
	}
	if again, _ := constellation.NewLinear(p.C); again != m {
		t.Fatal("NewLinear returned a different mapper after coding")
	}
	if !slices.Equal(tab, want) {
		t.Fatal("encode and decode changed the shared mapper's table")
	}
}
