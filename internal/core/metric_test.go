package core

import (
	"math"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

func TestParseCostMetric(t *testing.T) {
	cases := []struct {
		in   string
		want CostMetric
	}{
		{"", CostFloat64}, {"float64", CostFloat64}, {"float", CostFloat64},
		{"exact", CostFloat64},
		{"int32", CostInt32}, {"quantized", CostInt32}, {"quant", CostInt32},
	}
	for _, c := range cases {
		got, err := ParseCostMetric(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCostMetric(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseCostMetric("fixed"); err == nil {
		t.Error("unknown spelling accepted")
	}
	if CostFloat64.String() != "float64" || CostInt32.String() != "int32" {
		t.Errorf("String() spellings wrong: %q %q", CostFloat64, CostInt32)
	}
}

func TestQuantCoord(t *testing.T) {
	if got := quantCoord(0); got != 0 {
		t.Errorf("quantCoord(0) = %d", got)
	}
	if got := quantCoord(1); got != costQuantScale {
		t.Errorf("quantCoord(1) = %d, want %d", got, costQuantScale)
	}
	if got := quantCoord(-1); got != -costQuantScale {
		t.Errorf("quantCoord(-1) = %d", got)
	}
	// Half-step inputs round to even, matching the ADC quantizer convention.
	if got := quantCoord(1.5 / costQuantScale); got != 2 {
		t.Errorf("quantCoord(1.5 steps) = %d, want 2 (round-to-even)", got)
	}
	if got := quantCoord(2.5 / costQuantScale); got != 2 {
		t.Errorf("quantCoord(2.5 steps) = %d, want 2 (round-to-even)", got)
	}
	// Out-of-range coordinates clip like the ADC does.
	if got := quantCoord(1e9); got != costQuantMax {
		t.Errorf("quantCoord(+inf-ish) = %d, want %d", got, costQuantMax)
	}
	if got := quantCoord(-1e9); got != -costQuantMax {
		t.Errorf("quantCoord(-inf-ish) = %d, want %d", got, -costQuantMax)
	}
}

func TestSaturatingAdds(t *testing.T) {
	if got := satAdd32(math.MaxInt32, 1); got != math.MaxInt32 {
		t.Errorf("satAdd32 overflow = %d", got)
	}
	if got := satAdd32(math.MinInt32, -1); got != math.MinInt32 {
		t.Errorf("satAdd32 underflow = %d", got)
	}
	if got := satAdd32(40, 2); got != 42 {
		t.Errorf("satAdd32(40,2) = %d", got)
	}
	if got := sat32(int64(math.MaxInt32) + 7); got != math.MaxInt32 {
		t.Errorf("sat32 overflow = %d", got)
	}
	if got := sat32(-1 << 40); got != math.MinInt32 {
		t.Errorf("sat32 underflow = %d", got)
	}
	if got := sat32(-5); got != -5 {
		t.Errorf("sat32(-5) = %d", got)
	}
	// A column of saturating adds must pin at the ceiling rather than wrap
	// into a falsely attractive low cost.
	var ops i32Ops
	dst := []int32{math.MaxInt32 - 1, 10}
	ops.AddTo(dst, math.MaxInt32)
	if dst[0] != math.MaxInt32 || dst[1] != math.MaxInt32 {
		t.Errorf("AddTo did not saturate: %v", dst)
	}
}

// TestInt32MetricDecodesAWGN is the quantized metric's round-trip test: at a
// workable SNR the int32 decoder must recover nearly every message, just like
// the float64 path does in TestBeamDecoderWithAWGN.
func TestInt32MetricDecodesAWGN(t *testing.T) {
	p := DefaultParams()
	src := rng.New(7)
	ch, err := impair.NewAWGN(15, src)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewBeamDecoder(p, 16)
	if err := dec.SetCostMetric(CostInt32); err != nil {
		t.Fatal(err)
	}
	if dec.CostMetric() != CostInt32 {
		t.Fatal("CostMetric() does not report the configured metric")
	}
	msgSrc := rng.New(8)
	correct := 0
	for i := 0; i < 20; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		e, _ := NewEncoder(p, msg)
		obs, _ := NewObservations(e.NumSegments())
		for pass := 0; pass < 3; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				obs.Add(SymbolPos{Spine: s, Pass: pass}, ch.Corrupt(e.Symbol(s, pass)))
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if EqualMessages(out.Message, msg, p.MessageBits) {
			correct++
		}
	}
	if correct < 18 {
		t.Fatalf("only %d/20 messages decoded under the int32 metric at 15 dB", correct)
	}
}

// TestInt32MetricBSCMatchesFloat pins the BSC equivalence: Hamming distances
// are integers in either carrier, so the int32 metric is the exact BSC metric
// and every decode must return the same message with the same node counts.
func TestInt32MetricBSCMatchesFloat(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 16, Seed: 43}
	src := rng.New(45)
	bsc, _ := channel.NewBSC(0.05, src)
	fdec, _ := NewBeamDecoder(p, 16)
	qdec, _ := NewBeamDecoder(p, 16)
	if err := qdec.SetCostMetric(CostInt32); err != nil {
		t.Fatal(err)
	}
	msgSrc := rng.New(46)
	for i := 0; i < 10; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		e, _ := NewEncoder(p, msg)
		obs, _ := NewBitObservations(e.NumSegments())
		for pass := 0; pass < 20; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				obs.Add(SymbolPos{Spine: s, Pass: pass}, bsc.CorruptBit(e.CodedBit(s, pass)))
			}
		}
		fout, err := fdec.DecodeBits(obs)
		if err != nil {
			t.Fatal(err)
		}
		qout, err := qdec.DecodeBits(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(fout.Message, qout.Message, p.MessageBits) {
			t.Fatalf("message %d: int32 BSC decode %x differs from float64 %x", i, qout.Message, fout.Message)
		}
		if fout.Cost != qout.Cost {
			t.Fatalf("message %d: Hamming costs differ: float %v int32 %v", i, fout.Cost, qout.Cost)
		}
		if fout.NodesExpanded != qout.NodesExpanded {
			t.Fatalf("message %d: NodesExpanded differ: float %d int32 %d", i, fout.NodesExpanded, qout.NodesExpanded)
		}
	}
}

// nonTableMapper is a constellation mapper without a per-dimension table; the
// int32 metric cannot derive its integer grid from it.
type nonTableMapper struct{}

func (nonTableMapper) Map(word uint32) complex128 { return complex(float64(word), 0) }
func (nonTableMapper) C() int                     { return 10 }
func (nonTableMapper) Name() string               { return "non-table" }

func TestSetCostMetricValidation(t *testing.T) {
	p := DefaultParams()
	p.Mapper = nonTableMapper{}
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetCostMetric(CostInt32); err == nil {
		t.Error("int32 metric accepted without a table-backed mapper")
	}
	if err := dec.SetCostMetric(CostFloat64); err != nil {
		t.Errorf("float64 metric rejected: %v", err)
	}
	tdec, _ := NewBeamDecoder(DefaultParams(), 16)
	if err := tdec.SetCostMetric(CostMetric(99)); err == nil {
		t.Error("unknown metric value accepted")
	}
}

// TestMetricSwitchInvalidatesWorkspace switches the metric between
// incremental attempts on the same decoder; the cached cost sums of one
// carrier do not describe the other, so each switch must force a from-root
// rebuild that still decodes correctly.
func TestMetricSwitchInvalidatesWorkspace(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(11, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	obs := observeNoiseless(t, e, 2)
	dec, _ := NewBeamDecoder(p, 16)
	for _, m := range []CostMetric{CostFloat64, CostInt32, CostFloat64, CostInt32} {
		if err := dec.SetCostMetric(m); err != nil {
			t.Fatal(err)
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Fatalf("noiseless decode failed under %v after metric switch", m)
		}
	}
}

func TestPoolLeaseResetRestoresFloatMetric(t *testing.T) {
	pool := NewDecoderPool(2)
	defer pool.Drain()
	p := DefaultParams()
	lease, err := pool.Lease(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Dec.SetCostMetric(CostInt32); err != nil {
		t.Fatal(err)
	}
	lease.Release()
	again, err := pool.Lease(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if got := again.Dec.CostMetric(); got != CostFloat64 {
		t.Fatalf("re-leased decoder metric = %v, want float64 (Release must reset the metric)", got)
	}
}
