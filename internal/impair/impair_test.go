package impair

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"spinal/internal/fading"
	"spinal/internal/mathx"
	"spinal/internal/rng"
)

// stackSpec is a representative three-stage stack exercising trace gating,
// Markov interference and block erasures at once.
const stackSpec = "ge(good=16,bad=3,dgood=200,dbad=60)|spike(prob=0.05,dwell=10,db=-3)|erase(p=0.05,block=8)"

func testInput(n int) []complex128 {
	xs := make([]complex128, n)
	for i := range xs {
		// A fixed deterministic constellation-ish input; values themselves
		// don't matter, only that they are reproducible.
		xs[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	return xs
}

func corruptAll(t *testing.T, spec string, seed uint64, n, blockLen int) []complex128 {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	p, err := s.Build(seed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	src := testInput(n)
	dst := make([]complex128, n)
	for off := 0; off < n; off += blockLen {
		end := off + blockLen
		if end > n {
			end = n
		}
		p.CorruptBlock(dst[off:end], src[off:end])
	}
	return dst
}

// TestSameSpecSeedIdenticalBlocks pins the determinism contract: the same
// spec and seed reproduce byte-identical corrupted blocks, and block
// boundaries do not perturb the stream (one big block equals many small
// ones, equals symbol-at-a-time scalar Corrupt).
func TestSameSpecSeedIdenticalBlocks(t *testing.T) {
	const n = 512
	a := corruptAll(t, stackSpec, 42, n, n)
	b := corruptAll(t, stackSpec, 42, n, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("symbol %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}

	c := corruptAll(t, stackSpec, 42, n, 64)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("symbol %d depends on block boundaries: %v vs %v", i, a[i], c[i])
		}
	}

	s, _ := Parse(stackSpec)
	p, err := s.Build(42)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	src := testInput(n)
	for i := range src {
		got := p.Corrupt(src[i])
		if got != a[i] {
			t.Fatalf("scalar Corrupt diverges from CorruptBlock at symbol %d: %v vs %v", i, got, a[i])
		}
	}
}

// TestSeedAndOrderChangeStream pins the other half of the contract: a
// different seed, or the same stages in a different order, must change the
// noise stream.
func TestSeedAndOrderChangeStream(t *testing.T) {
	const n = 256
	a := corruptAll(t, stackSpec, 42, n, n)
	b := corruptAll(t, stackSpec, 43, n, n)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical streams")
	}

	reordered := "erase(p=0.05,block=8)|spike(prob=0.05,dwell=10,db=-3)|ge(good=16,bad=3,dgood=200,dbad=60)"
	c := corruptAll(t, reordered, 42, n, n)
	diff = 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("reordering stages did not change the stream")
	}
}

// TestIdentityPipeline: the zero-stage pipeline passes symbols through.
func TestIdentityPipeline(t *testing.T) {
	p := NewPipeline()
	src := testInput(16)
	dst := make([]complex128, 16)
	p.CorruptBlock(dst, src)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity pipeline altered symbol %d", i)
		}
	}
	if p.NoiseVariance() != 0 {
		t.Fatalf("identity variance = %v, want 0", p.NoiseVariance())
	}
	if p.Name() != "identity" {
		t.Fatalf("identity name = %q", p.Name())
	}
}

// TestStageVocabulary builds every stage with defaults and checks the output
// is finite and the stage reports a sensible variance.
func TestStageVocabulary(t *testing.T) {
	for _, name := range []string{"awgn", "ge", "rayleigh", "doppler", "walk", "ramp", "step", "spike", "erase"} {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		p, err := s.Build(7)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		src := testInput(128)
		dst := make([]complex128, 128)
		p.CorruptBlock(dst, src)
		for i, v := range dst {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("stage %q produced non-finite symbol %d: %v", name, i, v)
			}
		}
		if v := p.NoiseVariance(); v < 0 {
			t.Fatalf("stage %q variance %v < 0", name, v)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"nosuchstage",
		"awgn(snr=10,extra=1)",
		"awgn(snr)",
		"awgn(snr=abc)",
		"awgn(snr=1|ge",
		"|awgn",
		"awgn||ge",
		"spike(prob=2)",
		"erase(block=0)",
		"ramp(over=0)",
		"ge(dgood=0)",
		"doppler(fd=0.9)",
		"AWGN",
		// Non-finite arguments, in any stage.
		"awgn(snr=nan)",
		"awgn(snr=-inf)",
		"awgn(snr=+Inf)",
		"ramp(from=nan)",
		"walk(min=-inf,max=0)",
		"spike(db=-inf)",
		"doppler(fd=nan)",
		"erase(p=nan)",
		// dB arguments whose noise variance overflows.
		"awgn(snr=-4000)",
		"rayleigh(avg=-1e300)",
	}
	for _, s := range bad {
		spec, err := Parse(s)
		if err != nil {
			continue
		}
		if _, err := spec.Build(1); err == nil {
			t.Fatalf("spec %q built without error", s)
		}
	}
	// The JSON form goes through the same argument reader; JSON itself has
	// no NaN, so build the spec directly.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := &Spec{Stages: []StageSpec{{Stage: "walk", Args: map[string]float64{"max": v}}}}
		if _, err := spec.Build(1); err == nil {
			t.Fatalf("walk(max=%v) built without error", v)
		}
	}
}

// TestSpecRoundTrip: String() is a fixed point of Parse, and the JSON form
// builds the same pipeline as the string form.
func TestSpecRoundTrip(t *testing.T) {
	s, err := Parse(stackSpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	canon := s.String()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("Parse(String()): %v", err)
	}
	if s2.String() != canon {
		t.Fatalf("String not a fixed point: %q vs %q", s2.String(), canon)
	}

	js, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	s3, err := ParseAny(string(js))
	if err != nil {
		t.Fatalf("ParseAny(json): %v", err)
	}
	if s3.String() != canon {
		t.Fatalf("JSON round trip changed the spec: %q vs %q", s3.String(), canon)
	}

	const n = 128
	p1, _ := s.Build(9)
	p3, _ := s3.Build(9)
	src := testInput(n)
	d1 := make([]complex128, n)
	d3 := make([]complex128, n)
	p1.CorruptBlock(d1, src)
	p3.CorruptBlock(d3, src)
	for i := range d1 {
		if d1[i] != d3[i] {
			t.Fatalf("JSON-built pipeline diverges at symbol %d", i)
		}
	}
}

// FuzzParseSpec: the spec parser must never panic, and anything it accepts
// must render to a canonical form that re-parses to the same canonical form.
func FuzzParseSpec(f *testing.F) {
	f.Add(stackSpec)
	f.Add("awgn")
	f.Add(`{"stages":[{"stage":"awgn","args":{"snr":5}}]}`)
	f.Add("ramp(from=30,to=5,over=100)|erase(p=1,block=1)")
	f.Add("walk(min=-3,max=3,step=0.1)")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseAny(in)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if s2.String() != canon {
			t.Fatalf("canonical form not stable: %q vs %q", s2.String(), canon)
		}
		// Building may fail (argument validation), but must not panic; a
		// successful build must turn a finite block into a finite block.
		if p, err := s.Build(3); err == nil {
			buf := testInput(32)
			p.CorruptBlock(buf, buf)
			for i, v := range buf {
				if cmplx.IsNaN(v) || cmplx.IsInf(v) {
					t.Fatalf("spec %q produced non-finite symbol %d: %v", in, i, v)
				}
			}
		}
	})
}

// legacyStreams are FNV-1a hashes of the first 4096 outputs of the channel
// models these constructors replaced (internal/channel's AWGN and
// QuantizedAWGN, and fading.Channel over a Gilbert-Elliott trace), recorded
// before their deletion on the input of pinInput.
var legacyStreams = []struct {
	name string
	mk   func() (*Pipeline, error)
	hash uint64
}{
	{"awgn(10dB,src1)", func() (*Pipeline, error) { return NewAWGN(10, rng.New(1)) }, 0x7ae10f260286afa5},
	{"quantized-awgn(10dB,14b,src2)", func() (*Pipeline, error) { return NewQuantizedAWGN(10, 14, rng.New(2)) }, 0x9b5e72093a34c735},
	// 6 bits at 0 dB: coarse levels, and the ±4σ range clips the tails.
	{"quantized-awgn(0dB,6b,src5)", func() (*Pipeline, error) { return NewQuantizedAWGN(0, 6, rng.New(5)) }, 0x72e7d65a4a25425f},
	{"trace(ge(16,3,50,20,seed3),src4)", func() (*Pipeline, error) {
		tr, err := fading.NewGilbertElliott(16, 3, 50, 20, 3)
		if err != nil {
			return nil, err
		}
		return NewTraceNoise(tr, rng.New(4))
	}, 0x719d7571c6a9cdd0},
}

func pinInput() []complex128 {
	xs := make([]complex128, 4096)
	for i := range xs {
		xs[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	return xs
}

func streamHash(ys []complex128) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, v := range ys {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestConstructorsPinnedToLegacyStreams pins NewAWGN, NewQuantizedAWGN and
// NewTraceNoise to the legacy noise streams, whether the symbols go through
// as one block, as 37-symbol blocks corrupted in place, or one scalar
// Corrupt call at a time.
func TestConstructorsPinnedToLegacyStreams(t *testing.T) {
	for _, tc := range legacyStreams {
		xs := pinInput()
		whole := make([]complex128, len(xs))
		p, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p.CorruptBlock(whole, xs)

		inPlace := pinInput()
		p, _ = tc.mk()
		for off := 0; off < len(inPlace); off += 37 {
			end := min(off+37, len(inPlace))
			p.CorruptBlock(inPlace[off:end], inPlace[off:end])
		}

		scalar := make([]complex128, len(xs))
		p, _ = tc.mk()
		for i, x := range xs {
			scalar[i] = p.Corrupt(x)
		}
		for name, ys := range map[string][]complex128{"block": whole, "in-place": inPlace, "scalar": scalar} {
			if got := streamHash(ys); got != tc.hash {
				t.Errorf("%s (%s): stream hash %016x, want %016x", tc.name, name, got, tc.hash)
			}
		}
	}
}

// TestNoisePowerAndMean checks the additive noise statistics of every way to
// ask for fixed AWGN: the constructor, a constant trace and the spec grammar
// each add zero-mean noise of power 1/SNR and report it as NoiseVariance.
func TestNoisePowerAndMean(t *testing.T) {
	spec := func(snr float64, seed uint64) (*Pipeline, error) {
		s, err := Parse(fmt.Sprintf("awgn(snr=%g)", snr))
		if err != nil {
			return nil, err
		}
		return s.Build(seed)
	}
	for name, mk := range map[string]func(snr float64, seed uint64) (*Pipeline, error){
		"NewAWGN":          func(snr float64, seed uint64) (*Pipeline, error) { return NewAWGN(snr, rng.New(seed)) },
		"NewQuantizedAWGN": func(snr float64, seed uint64) (*Pipeline, error) { return NewQuantizedAWGN(snr, 14, rng.New(seed)) },
		"NewTraceNoise": func(snr float64, seed uint64) (*Pipeline, error) {
			return NewTraceNoise(fading.Constant{Level: snr}, rng.New(seed))
		},
		"spec": spec,
	} {
		p, err := mk(10, 1) // sigma2 = 0.1
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := p.NoiseVariance(); math.Abs(v-0.1) > 1e-12 {
			t.Errorf("%s: NoiseVariance = %v, want 0.1", name, v)
		}
		const n = 100000
		var power float64
		for i := 0; i < n; i++ {
			y := p.Corrupt(0)
			power += real(y)*real(y) + imag(y)*imag(y)
		}
		if avg := power / n; math.Abs(avg-0.1) > 0.005 {
			t.Errorf("%s: noise power = %v, want 0.1", name, avg)
		}

		p, err = mk(20, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const m = 50000
		var sumI, sumQ float64
		x := complex(0.7, -0.3)
		for i := 0; i < m; i++ {
			y := p.Corrupt(x)
			sumI += real(y)
			sumQ += imag(y)
		}
		if math.Abs(sumI/m-0.7) > 0.01 || math.Abs(sumQ/m+0.3) > 0.01 {
			t.Errorf("%s: mean shifted: %v %v", name, sumI/m, sumQ/m)
		}
	}
}

// TestConstructorErrors: the constructors reject what the grammar rejects
// (non-finite or out-of-range SNRs) plus a nil source, a nil trace and an
// impossible ADC bit depth, and accept any SNR the grammar accepts.
func TestConstructorErrors(t *testing.T) {
	src := rng.New(3)
	tr := fading.Constant{Level: 10}
	for name, build := range map[string]func() (*Pipeline, error){
		"awgn snr=NaN":      func() (*Pipeline, error) { return NewAWGN(math.NaN(), src) },
		"awgn snr=+Inf":     func() (*Pipeline, error) { return NewAWGN(math.Inf(1), src) },
		"awgn snr=-Inf":     func() (*Pipeline, error) { return NewAWGN(math.Inf(-1), src) },
		"awgn snr=-4000":    func() (*Pipeline, error) { return NewAWGN(-4000, src) },
		"awgn nil source":   func() (*Pipeline, error) { return NewAWGN(10, nil) },
		"quantized snr=NaN": func() (*Pipeline, error) { return NewQuantizedAWGN(math.NaN(), 14, src) },
		"quantized bits=0":  func() (*Pipeline, error) { return NewQuantizedAWGN(10, 0, src) },
		"quantized bits=40": func() (*Pipeline, error) { return NewQuantizedAWGN(10, 40, src) },
		"quantized nil src": func() (*Pipeline, error) { return NewQuantizedAWGN(10, 14, nil) },
		"trace nil trace":   func() (*Pipeline, error) { return NewTraceNoise(nil, src) },
		"trace nil source":  func() (*Pipeline, error) { return NewTraceNoise(tr, nil) },
	} {
		if p, err := build(); err == nil {
			t.Errorf("%s accepted: %s", name, p.Name())
		}
	}
	for _, snr := range []float64{-1000, -25, 0, 1000} {
		if _, err := NewAWGN(snr, src); err != nil {
			t.Errorf("NewAWGN(%v dB): %v", snr, err)
		}
	}
}

// TestADCStage checks the quantizer: every output is a level centre within
// half a step of the clipped input, a 14-bit ADC is transparent to within
// one step, out-of-range inputs clip, and the §5 front end stays close to
// its input.
func TestADCStage(t *testing.T) {
	q, err := newADC(4, 1) // 16 levels of width 0.125
	if err != nil {
		t.Fatal(err)
	}
	prop := func(raw int16) bool {
		v := float64(raw) / 10000 // in [-3.2768, 3.2767]
		out := q.quantize(v)
		// Output must be a representable level: -1 + (i+0.5)*0.125.
		idx := (out + 1) / 0.125
		if math.Abs(idx-math.Floor(idx)-0.5) > 1e-9 {
			return false
		}
		clipped := math.Max(-1, math.Min(1, v))
		return math.Abs(out-clipped) <= 0.125
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	fine, _ := newADC(14, 4)
	for _, v := range []float64{-3.9, -1.2345, 0, 0.001, 2.71828} {
		if out := fine.quantize(v); math.Abs(out-v) > 4.0/(1<<13) {
			t.Fatalf("14-bit quantization error too large at %v: %v", v, out-v)
		}
	}

	coarse, _ := newADC(8, 1)
	var out [1]complex128
	coarse.Apply(out[:], []complex128{complex(100, -100)})
	if real(out[0]) > 1 || imag(out[0]) < -1 {
		t.Fatalf("ADC did not clip: %v", out[0])
	}

	p, err := NewQuantizedAWGN(20, 14, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "awgn(snr=20)|adc(bits=14)" {
		t.Errorf("name = %q", p.Name())
	}
	var maxDev float64
	x := complex(0.5, -0.5)
	for i := 0; i < 1000; i++ {
		y := p.Corrupt(x)
		maxDev = math.Max(maxDev, math.Abs(real(y-x))+math.Abs(imag(y-x)))
	}
	if maxDev > 1.0 {
		t.Fatalf("deviation unexpectedly large: %v", maxDev)
	}
}

// TestTraceNoiseTracksTrace: with a good/bad trace, the measured noise power
// over symbols sent in each state differs by roughly the SNR gap, and
// NoiseVariance follows the trace.
func TestTraceNoiseTracksTrace(t *testing.T) {
	g, _ := fading.NewGilbertElliott(25, 5, 500, 500, 11)
	p, err := NewTraceNoise(g, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	var goodPower, badPower float64
	var goodN, badN int
	for i := 0; i < 100000; i++ {
		snr := g.SNRdB(i)
		if want := 1 / mathx.DBToLinear(snr); p.NoiseVariance() != want {
			t.Fatalf("symbol %d: NoiseVariance %v, want %v", i, p.NoiseVariance(), want)
		}
		y := p.Corrupt(0)
		power := real(y)*real(y) + imag(y)*imag(y)
		if snr == 25 {
			goodPower += power
			goodN++
		} else {
			badPower += power
			badN++
		}
	}
	if goodN == 0 || badN == 0 {
		t.Fatal("trace did not visit both states")
	}
	ratio := (badPower / float64(badN)) / (goodPower / float64(goodN))
	if ratio < 50 || ratio > 200 {
		t.Fatalf("noise power ratio between bad and good states = %v, want about 100", ratio)
	}
}
