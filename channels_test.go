package spinal_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"spinal"
)

func TestChannelConstructorsAndMetadata(t *testing.T) {
	if spinal.NoiseVariance(0) != 1 || math.Abs(spinal.NoiseVariance(10)-0.1) > 1e-12 {
		t.Errorf("NoiseVariance(0 dB, 10 dB) = %v, %v; want 1, 0.1", spinal.NoiseVariance(0), spinal.NoiseVariance(10))
	}
	awgn, err := spinal.NewAWGN(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if awgn.Name() == "" {
		t.Error("AWGN channel has no name")
	}
	if got, want := awgn.NoiseVariance(), spinal.NoiseVariance(12); math.Abs(got-want) > 1e-12 {
		t.Errorf("AWGN NoiseVariance = %v, want %v", got, want)
	}
	q, err := spinal.NewQuantizedAWGN(12, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.NoiseVariance()-awgn.NoiseVariance()) > 1e-12 {
		t.Error("quantized AWGN reports a different noise variance than plain AWGN")
	}
	ray, err := spinal.NewRayleigh(10, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ray.NoiseVariance() <= 0 || ray.Name() == "" {
		t.Error("Rayleigh channel metadata missing")
	}
	bsc, err := spinal.NewBSC(0.1, 3)
	if err != nil || bsc.Name() == "" {
		t.Fatalf("BSC constructor failed: %v", err)
	}
	bec, err := spinal.NewBEC(0.3, 4)
	if err != nil || bec.Name() == "" {
		t.Fatalf("BEC constructor failed: %v", err)
	}

	for name, build := range map[string]func() error{
		"quantized adc=0":    func() error { _, err := spinal.NewQuantizedAWGN(12, 0, 1); return err },
		"awgn snr=NaN":       func() error { _, err := spinal.NewAWGN(math.NaN(), 1); return err },
		"awgn snr=-Inf":      func() error { _, err := spinal.NewAWGN(math.Inf(-1), 1); return err },
		"quantized snr=+Inf": func() error { _, err := spinal.NewQuantizedAWGN(math.Inf(1), 14, 1); return err },
		"rayleigh avg=NaN":   func() error { _, err := spinal.NewRayleigh(math.NaN(), 16, 1); return err },
		"bsc p>0.5":          func() error { _, err := spinal.NewBSC(0.9, 1); return err },
		"bec p>=1":           func() error { _, err := spinal.NewBEC(1, 1); return err },
		"rayleigh block=0":   func() error { _, err := spinal.NewRayleigh(10, 0, 1); return err },
		"trace nil":          func() error { _, err := spinal.NewTraceChannel(nil, 1); return err },
		"gilbert dwell=0":    func() error { _, err := spinal.GilbertElliottTrace(20, 5, 0, 10, 1); return err },
		"walk empty range":   func() error { _, err := spinal.WalkTrace(10, 10, 1, 1); return err },
		"rayleigh tc=0":      func() error { _, err := spinal.RayleighTrace(10, 0, 1); return err },
	} {
		if build() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTraceChannelFollowsTrace(t *testing.T) {
	trace := spinal.ConstantTrace(17)
	if trace.SNRdB(0) != 17 || trace.SNRdB(1000) != 17 {
		t.Fatal("constant trace not constant")
	}
	ch, err := spinal.NewTraceChannel(trace, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.NoiseVariance(), spinal.NoiseVariance(17); math.Abs(got-want) > 1e-12 {
		t.Fatalf("trace channel NoiseVariance = %v, want %v", got, want)
	}
	ge, err := spinal.GilbertElliottTrace(22, 4, 100, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if s := ge.SNRdB(i); s != 22 && s != 4 {
			t.Fatalf("Gilbert-Elliott trace emitted SNR %v outside its two states", s)
		}
	}
}

// legacyStreams are FNV-1a hashes of the first 4096 outputs of the channel
// models the impair pipelines replaced (internal/channel's AWGN and
// QuantizedAWGN, and fading.Channel over a Gilbert-Elliott trace), recorded
// before their deletion on the input of pinInput. The facade constructors must
// reproduce those streams bit for bit.
var legacyStreams = map[string]uint64{
	"awgn(10dB,seed1)":                  0x7ae10f260286afa5,
	"quantized-awgn(10dB,14b,seed2)":    0x9b5e72093a34c735,
	"trace(ge(16,3,50,20,seed3),seed4)": 0x719d7571c6a9cdd0,
}

func pinInput() []complex128 {
	xs := make([]complex128, 4096)
	for i := range xs {
		xs[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	return xs
}

func streamHash(ch spinal.Channel) uint64 {
	xs := pinInput()
	ch.CorruptBlock(xs, xs)
	h := fnv.New64a()
	var b [16]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestChannelConstructorsPinnedToLegacyStreams pins NewAWGN, NewQuantizedAWGN and
// NewTraceChannel to the noise streams of the models they replaced.
func TestChannelConstructorsPinnedToLegacyStreams(t *testing.T) {
	build := map[string]func() (spinal.Channel, error){
		"awgn(10dB,seed1)":               func() (spinal.Channel, error) { return spinal.NewAWGN(10, 1) },
		"quantized-awgn(10dB,14b,seed2)": func() (spinal.Channel, error) { return spinal.NewQuantizedAWGN(10, 14, 2) },
		"trace(ge(16,3,50,20,seed3),seed4)": func() (spinal.Channel, error) {
			tr, err := spinal.GilbertElliottTrace(16, 3, 50, 20, 3)
			if err != nil {
				return nil, err
			}
			return spinal.NewTraceChannel(tr, 4)
		},
	}
	for name, mk := range build {
		ch, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := streamHash(ch), legacyStreams[name]; got != want {
			t.Errorf("%s: stream hash %016x, want %016x", name, got, want)
		}
	}
}

func TestBECMarksErasures(t *testing.T) {
	bec, err := spinal.NewBEC(0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]byte, 2000)
	for i := range tx {
		tx[i] = byte(i & 1)
	}
	rx := make([]byte, len(tx))
	bec.CorruptBits(rx, tx)
	erased := 0
	for i, v := range rx {
		switch v {
		case spinal.Erased:
			erased++
		case tx[i]:
		default:
			t.Fatalf("BEC altered bit %d from %d to %d", i, tx[i], v)
		}
	}
	if erased < 800 || erased > 1200 {
		t.Fatalf("BEC at p=0.5 erased %d of %d bits", erased, len(tx))
	}
}

// TestImpairmentPipelineFacade pins the declarative channel entry point:
// the same spec and seed reproduce byte-identical corruption in both the
// string and JSON forms, the code delivers end to end over a stacked
// pipeline, and malformed specs are rejected.
func TestImpairmentPipelineFacade(t *testing.T) {
	const spec = "ge(good=20,bad=8,dgood=300,dbad=80)|spike(prob=0.02,dwell=15,db=-3)"
	xs := make([]complex128, 128)
	for i := range xs {
		xs[i] = complex(float64(i%5)*0.3-0.6, float64(i%3)*0.4-0.4)
	}
	a, err := spinal.NewImpairmentPipeline(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == "" || a.NoiseVariance() <= 0 {
		t.Fatalf("pipeline metadata missing: name=%q sigma2=%v", a.Name(), a.NoiseVariance())
	}
	b, err := spinal.NewImpairmentPipeline(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	const jsonSpec = `{"stages":[` +
		`{"stage":"ge","args":{"good":20,"bad":8,"dgood":300,"dbad":80}},` +
		`{"stage":"spike","args":{"prob":0.02,"dwell":15,"db":-3}}]}`
	c, err := spinal.NewImpairmentPipeline(jsonSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	ra := make([]complex128, len(xs))
	rb := make([]complex128, len(xs))
	rc := make([]complex128, len(xs))
	a.CorruptBlock(ra, xs)
	b.CorruptBlock(rb, xs)
	c.CorruptBlock(rc, xs)
	for i := range xs {
		if ra[i] != rb[i] {
			t.Fatalf("same spec+seed diverged at symbol %d", i)
		}
		if ra[i] != rc[i] {
			t.Fatalf("JSON form diverged from spec string at symbol %d", i)
		}
	}

	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(64, 71)
	ch, err := spinal.NewImpairmentPipeline(spec, 72)
	if err != nil {
		t.Fatal(err)
	}
	res, err := code.TransmitOver(msg, ch, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || !code.Equal(res.Decoded, msg) {
		t.Fatal("rateless transmission over the impairment pipeline failed")
	}

	for _, bad := range []string{"nosuch", "awgn(snr=10,snr=11)", "ge(|", "awgn(frob=1)"} {
		if _, err := spinal.NewImpairmentPipeline(bad, 1); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestComposeChannels pins the Channel combinator: composition applies the
// parts in order with their own noise streams, sums their variances and
// joins their names.
func TestComposeChannels(t *testing.T) {
	if _, err := spinal.Compose(); err == nil {
		t.Error("empty composition accepted")
	}
	single, err := spinal.NewAWGN(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spinal.Compose(single)
	if err != nil || got != single {
		t.Fatalf("one-channel composition should be the channel itself (err=%v)", err)
	}

	mk := func() (spinal.Channel, spinal.Channel) {
		awgn, err := spinal.NewAWGN(14, 81)
		if err != nil {
			t.Fatal(err)
		}
		ray, err := spinal.NewRayleigh(20, 16, 82)
		if err != nil {
			t.Fatal(err)
		}
		return awgn, ray
	}
	a1, r1 := mk()
	comp, err := spinal.Compose(a1, r1)
	if err != nil {
		t.Fatal(err)
	}
	if want := a1.Name() + "+" + r1.Name(); comp.Name() != want {
		t.Errorf("composed name %q, want %q", comp.Name(), want)
	}
	if want := a1.NoiseVariance() + r1.NoiseVariance(); math.Abs(comp.NoiseVariance()-want) > 1e-12 {
		t.Errorf("composed variance %v, want %v", comp.NoiseVariance(), want)
	}
	xs := make([]complex128, 96)
	for i := range xs {
		xs[i] = complex(float64(i%4)*0.4-0.6, float64(i%6)*0.2-0.5)
	}
	viaComp := make([]complex128, len(xs))
	comp.CorruptBlock(viaComp, xs)
	// Identically seeded parts applied by hand must match.
	a2, r2 := mk()
	manual := make([]complex128, len(xs))
	a2.CorruptBlock(manual, xs)
	r2.CorruptBlock(manual, manual)
	for i := range xs {
		if viaComp[i] != manual[i] {
			t.Fatalf("composition diverged from sequential application at symbol %d", i)
		}
	}
}

// TestDopplerTrace exercises the Jakes-model trace: deterministic, finite,
// varying, and rejecting out-of-range Doppler frequencies.
func TestDopplerTrace(t *testing.T) {
	tr, err := spinal.DopplerTrace(18, 0.02, 91)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() == "" {
		t.Error("Doppler trace has no name")
	}
	varied := false
	for i := 0; i < 256; i++ {
		s := tr.SNRdB(i)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("Doppler trace SNR not finite at %d: %v", i, s)
		}
		if s != tr.SNRdB(0) {
			varied = true
		}
		if s != tr.SNRdB(i) {
			t.Fatalf("Doppler trace not deterministic at %d", i)
		}
	}
	if !varied {
		t.Error("Doppler trace never varied over 256 symbols")
	}
	ch, err := spinal.NewTraceChannel(tr, 92)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NoiseVariance() <= 0 {
		t.Error("Doppler trace channel variance not positive")
	}
	for _, fd := range []float64{0, -0.1, 0.6} {
		if _, err := spinal.DopplerTrace(18, fd, 1); err == nil {
			t.Errorf("fd=%v accepted", fd)
		}
	}
}

// TestObserveBatchMatchesObserve is the facade half of the scalar/batch
// equivalence acceptance: ObserveBatch followed by one Decode must yield a
// bit-identical message and identical NodesExpanded to the per-symbol
// Observe loop, on a noisy AWGN stream.
func TestObserveBatchMatchesObserve(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 96})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(96, 31)
	stream, err := code.EncodeStream(msg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := spinal.NewAWGN(10, 32)
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * code.NumSegments()
	batch := stream.NextBatch(make([]spinal.Symbol, n))
	poss := make([]spinal.SymbolPos, n)
	tx := make([]complex128, n)
	for i, s := range batch {
		poss[i], tx[i] = s.Pos, s.Value
	}
	rx := make([]complex128, n)
	ch.CorruptBlock(rx, tx)

	scalarDec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	for i := range poss {
		if err := scalarDec.Observe(poss[i], rx[i]); err != nil {
			t.Fatal(err)
		}
	}
	batchDec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	if err := batchDec.ObserveBatch(poss, rx); err != nil {
		t.Fatal(err)
	}
	if scalarDec.Observations() != batchDec.Observations() {
		t.Fatalf("observation counts diverged: %d vs %d", scalarDec.Observations(), batchDec.Observations())
	}
	a, err := scalarDec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchDec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !code.Equal(a, b) {
		t.Fatal("scalar and batch observation paths decoded different messages")
	}
	if scalarDec.NodesExpanded() != batchDec.NodesExpanded() {
		t.Fatalf("NodesExpanded diverged: %d vs %d", scalarDec.NodesExpanded(), batchDec.NodesExpanded())
	}
	// Validation is all-or-nothing.
	if err := batchDec.ObserveBatch(poss[:2], rx[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
	before := batchDec.Observations()
	badPos := []spinal.SymbolPos{{Spine: -1, Pass: 0}}
	if err := batchDec.ObserveBatch(badPos, rx[:1]); err == nil {
		t.Error("invalid position accepted")
	}
	if batchDec.Observations() != before {
		t.Error("failed batch mutated the decoder's observations")
	}
}

// TestTransmitBitsOverBSC runs the binary variant end to end over a BSC.
func TestTransmitBitsOverBSC(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 32, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(32, 51)
	ch, err := spinal.NewBSC(0.05, 52)
	if err != nil {
		t.Fatal(err)
	}
	res, err := code.TransmitBitsOver(msg, ch, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || !code.Equal(res.Decoded, msg) {
		t.Fatalf("BSC transmission at p=0.05 failed: %+v", res)
	}
}

// TestTransmitOverTimeVaryingChannels exercises the fading channels end to
// end through TransmitOver: a bursty Gilbert-Elliott trace, a Rayleigh
// block-fading channel and a slow random walk.
func TestTransmitOverTimeVaryingChannels(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(64, 61)

	build := map[string]func() (spinal.Channel, error){
		"gilbert-elliott": func() (spinal.Channel, error) {
			trace, err := spinal.GilbertElliottTrace(25, 8, 400, 200, 62)
			if err != nil {
				return nil, err
			}
			return spinal.NewTraceChannel(trace, 63)
		},
		"rayleigh-block": func() (spinal.Channel, error) {
			return spinal.NewRayleigh(18, 32, 64)
		},
		"walk": func() (spinal.Channel, error) {
			trace, err := spinal.WalkTrace(10, 25, 0.05, 65)
			if err != nil {
				return nil, err
			}
			return spinal.NewTraceChannel(trace, 66)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			ch, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			over, err := code.TransmitOver(msg, ch, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !over.Delivered {
				t.Fatalf("%s: rateless transmission failed", name)
			}
			if !code.Equal(over.Decoded, msg) {
				t.Fatalf("%s: decoded message mismatch", name)
			}
		})
	}
}
