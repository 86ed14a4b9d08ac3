package core

import (
	"fmt"
	"math"
	"testing"

	"spinal/internal/constellation"
	"spinal/internal/rng"
)

// cost folds the level's observations into one spine's local cost through
// the batched kernel.
func (c *awgnCoster) cost(spine uint64, level int) float64 {
	var loc [1]float64
	sp := [1]uint64{spine}
	c.costMany(loc[:], sp[:], level)
	return loc[0]
}

// awgnCosterFor returns the coster Decode would install for obs.
func awgnCosterFor(d *BeamDecoder, obs *Observations) *awgnCoster {
	return &awgnCoster{d: d, obs: obs, tab: d.dimTab}
}

// opaqueMapper hides the DimTable method of the mapper it wraps, so the
// decoder takes its custom-mapper branch.
type opaqueMapper struct{ m constellation.Mapper }

func (o opaqueMapper) Map(word uint32) complex128 { return o.m.Map(word) }
func (o opaqueMapper) C() int                     { return o.m.C() }
func (o opaqueMapper) Name() string               { return "opaque-" + o.m.Name() }

// scalarAWGNFold is the kernel's oracle: each spine's observations replayed
// one at a time through symbolFor and added in recording order, starting
// from zero.
func scalarAWGNFold(d *BeamDecoder, obs *Observations, level int, spines []uint64) []float64 {
	out := make([]float64, len(spines))
	for j, s := range spines {
		var local float64
		for _, o := range obs.spines[level] {
			x := symbolFor(d.family, d.mapper, d.p.C, s, o.pass)
			dI := real(o.y) - real(x)
			dQ := imag(o.y) - imag(x)
			local += dI*dI + dQ*dQ
		}
		out[j] = local
	}
	return out
}

// scalarBSCFold is the Hamming-metric oracle over codedBitFor.
func scalarBSCFold(d *BeamDecoder, obs *BitObservations, level int, spines []uint64) []float64 {
	out := make([]float64, len(spines))
	for j, s := range spines {
		var local float64
		for _, o := range obs.spines[level] {
			if codedBitFor(d.family, s, o.pass) != o.bit {
				local++
			}
		}
		out[j] = local
	}
	return out
}

// foldPassPatterns are the pass sequences a level's observations can carry:
// none (a fold still zeroes its output),
// ascending passes (every in-word offset and straddle of the expansion),
// punctured and out-of-order passes (the word index moves backwards and
// skips), repeats, and passes past 2^32 coded bits.
func foldPassPatterns(r *rng.Rand) []struct {
	name   string
	passes []int
} {
	asc := make([]int, 40)
	for i := range asc {
		asc[i] = i
	}
	random := make([]int, 24)
	for i := range random {
		random[i] = r.Intn(200)
	}
	return []struct {
		name   string
		passes []int
	}{
		{"empty", nil},
		{"ascending", asc},
		{"random", random},
		{"repeats", []int{3, 3, 0, 7, 7, 7, 1}},
		{"high", []int{math.MaxInt32 - 2, 1 << 28, math.MaxInt32, 5, 1<<31 - 1000}},
	}
}

// checkFold compares the kernel's output with the oracle's bit for bit.
func checkFold(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: spine %d: kernel %v (%#x), scalar replay %v (%#x)",
				name, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestCostFoldMatchesScalarReplay pins the observation-major cost kernels to
// a scalar replay of the encoder: every local cost, for every block length
// around the kernel's chunk width, every C (so straddling passes fall at
// every in-word offset), the table and custom-mapper
// AWGN branches and the BSC, has exactly the bits of the sequential fold.
func TestCostFoldMatchesScalarReplay(t *testing.T) {
	r := rng.New(17)
	patterns := foldPassPatterns(r)
	blocks := []int{1, 63, 64, 65, 256, 257}
	for c := 1; c <= 16; c++ {
		// The uniform grid is defined for every C, down to 1.
		uni, err := constellation.NewUniform(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, mname := range []string{"table", "opaque"} {
			p := Params{K: 4, C: c, MessageBits: 8, Seed: uint64(100 + c), Mapper: uni}
			if mname == "opaque" {
				p.Mapper = opaqueMapper{uni}
			}
			d, err := NewBeamDecoder(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if (d.dimTab == nil) != (mname == "opaque") {
				t.Fatalf("C=%d %s: dimTab presence wrong", c, mname)
			}
			for _, pat := range patterns {
				pname, passes := pat.name, pat.passes
				obs, _ := NewObservations(p.NumSegments())
				bits, _ := NewBitObservations(p.NumSegments())
				for _, pass := range passes {
					y := complex(r.NormFloat64(), r.NormFloat64())
					if err := obs.Add(SymbolPos{Spine: 1, Pass: pass}, y); err != nil {
						t.Fatal(err)
					}
					if err := bits.Add(SymbolPos{Spine: 1, Pass: pass}, byte(r.Intn(2))); err != nil {
						t.Fatal(err)
					}
				}
				ac := awgnCosterFor(d, obs)
				ac.prepareLevel(1)
				bc := &bscCoster{d: d, obs: bits}
				bc.prepareLevel(1)
				for _, nb := range blocks {
					spines := make([]uint64, nb)
					for j := range spines {
						spines[j] = r.Uint64()
					}
					name := fmt.Sprintf("C=%d/%s/%s/block=%d", c, mname, pname, nb)
					locals := make([]float64, nb)
					for j := range locals {
						locals[j] = math.NaN() // a fold must overwrite
					}
					ac.costMany(locals, spines, 1)
					checkFold(t, name+"/awgn", locals, scalarAWGNFold(d, obs, 1, spines))
					if mname == "opaque" {
						continue // the BSC fold does not use the mapper
					}
					for j := range locals {
						locals[j] = math.NaN()
					}
					bc.costMany(locals, spines, 1)
					checkFold(t, name+"/bsc", locals, scalarBSCFold(d, bits, 1, spines))
				}
			}
		}
	}
}

// TestReplayPastPassWrap: the decoder replays a pass from the same 64-bit
// bit offset 2·C·pass that the encoder reads, also once that offset no
// longer fits in 32 bits. For every C, a noiseless symbol at the passes on
// both sides of 2^32/(2C) costs exactly 0 against its own spine, and a
// noiseless decode from those passes alone returns the message.
func TestReplayPastPassWrap(t *testing.T) {
	for c := 1; c <= 16; c++ {
		uni, err := constellation.NewUniform(c)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{K: 4, C: c, MessageBits: 12, Seed: uint64(7 * c), Mapper: uni}
		msg := testMessage(uint64(c), p.MessageBits)
		e, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		// The first pass whose offset needs a 33rd bit, and enough passes
		// around it to carry at least 32 noiseless bits per spine.
		wrap := (1<<32 + 2*c - 1) / (2 * c)
		span := max(2, 32/(2*c)+1)
		obs, _ := NewObservations(e.NumSegments())
		for pass := wrap - span; pass < wrap+span; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, e.Symbol(s, pass)); err != nil {
					t.Fatal(err)
				}
			}
		}
		d, err := NewMLDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		ac := awgnCosterFor(d, obs)
		for s, sv := range e.Spine() {
			ac.prepareLevel(s)
			if got := ac.cost(sv, s); got != 0 {
				t.Fatalf("C=%d spine %d: own-spine replay cost %v over passes %d..%d, want 0",
					c, s, got, wrap-span, wrap+span-1)
			}
		}
		out, err := d.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cost != 0 || !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Fatalf("C=%d: noiseless decode past the wrap returned cost %v, message ok %v",
				c, out.Cost, EqualMessages(out.Message, msg, p.MessageBits))
		}
	}
}

// TestCostFoldAllocs guards the kernels' coster-resident chunk buffers: a
// fold on a warmed coster allocates nothing, on every branch.
func TestCostFoldAllocs(t *testing.T) {
	r := rng.New(5)
	lin, _ := constellation.NewLinear(10)
	spines := make([]uint64, 257)
	for j := range spines {
		spines[j] = r.Uint64()
	}
	locals := make([]float64, len(spines))
	for _, tc := range []struct {
		name   string
		mapper constellation.Mapper
	}{{"table", nil}, {"opaque", opaqueMapper{lin}}} {
		p := Params{K: 8, C: 10, MessageBits: 16, Seed: 3, Mapper: tc.mapper}
		d, _ := NewBeamDecoder(p, 16)
		obs, _ := NewObservations(p.NumSegments())
		bits, _ := NewBitObservations(p.NumSegments())
		for pass := 0; pass < 12; pass++ {
			obs.Add(SymbolPos{Spine: 0, Pass: pass}, complex(r.NormFloat64(), r.NormFloat64()))
			bits.Add(SymbolPos{Spine: 0, Pass: pass}, byte(r.Intn(2)))
		}
		ac := awgnCosterFor(d, obs)
		ac.prepareLevel(0)
		bc := &bscCoster{d: d, obs: bits}
		bc.prepareLevel(0)
		if n := testing.AllocsPerRun(20, func() { ac.costMany(locals, spines, 0) }); n != 0 {
			t.Errorf("%s awgn fold: %v allocs/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(20, func() { bc.costMany(locals, spines, 0) }); n != 0 {
			t.Errorf("%s bsc fold: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// BenchmarkCostFold measures the AWGN cost kernel, in ns per node (one
// spine's fold), over a 256-spine range split into the engine's 2^K-child
// blocks. A full fold replays the hash expansion of obs observations; a
// fresh rebuild is what an expanded node costs: the parent's children are
// hashed (hash.Family.Children) and then given a full fold.
func BenchmarkCostFold(b *testing.B) {
	const nodes = 256
	r := rng.New(9)
	spines := make([]uint64, nodes)
	for j := range spines {
		spines[j] = r.Uint64()
	}
	locals := make([]float64, nodes)
	for _, k := range []int{4, 8} {
		for _, nObs := range []int{1, 4, 8} {
			for _, mode := range []string{"fresh", "full"} {
				b.Run(fmt.Sprintf("K=%d/obs=%d/%s", k, nObs, mode), func(b *testing.B) {
					p := Params{K: k, C: 10, MessageBits: 2 * k, Seed: 11}
					d, _ := NewBeamDecoder(p, 16)
					obs, _ := NewObservations(p.NumSegments())
					for pass := 0; pass < nObs; pass++ {
						obs.Add(SymbolPos{Spine: 0, Pass: pass}, complex(r.NormFloat64(), r.NormFloat64()))
					}
					c := awgnCosterFor(d, obs)
					c.prepareLevel(0)
					block := 1 << k
					// A fresh rebuild hashes each block from its own parent
					// into kids; a full fold folds the fixed spines.
					kids := make([]uint64, nodes)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < nodes; lo += block {
							sp := spines[lo : lo+block]
							if mode == "fresh" {
								sp = kids[lo : lo+block]
								d.family.Children(sp, spines[lo])
							}
							c.costMany(locals[lo:lo+block], sp, 0)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
				})
			}
		}
	}
}
