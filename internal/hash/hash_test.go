package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextDeterministic(t *testing.T) {
	f := NewFamily(0x1234)
	a := f.Next(42, 7)
	b := f.Next(42, 7)
	if a != b {
		t.Fatalf("Next not deterministic: %x != %x", a, b)
	}
}

func TestNextDependsOnSeed(t *testing.T) {
	f1 := NewFamily(1)
	f2 := NewFamily(2)
	if f1.Next(42, 7) == f2.Next(42, 7) {
		t.Fatal("different seeds produced identical hash output")
	}
}

func TestNextDependsOnBothInputs(t *testing.T) {
	f := NewFamily(99)
	base := f.Next(42, 7)
	if f.Next(43, 7) == base {
		t.Error("changing spine value did not change hash output")
	}
	if f.Next(42, 8) == base {
		t.Error("changing segment did not change hash output")
	}
}

func TestSeedAccessor(t *testing.T) {
	f := NewFamily(0xdeadbeef)
	if f.Seed() != 0xdeadbeef {
		t.Fatalf("Seed() = %x, want deadbeef", f.Seed())
	}
}

// TestNextAvalanche checks that flipping a single input bit flips roughly half
// of the output bits, which is the practical stand-in for the paper's
// uniformity assumption on h.
func TestNextAvalanche(t *testing.T) {
	f := NewFamily(7)
	const trials = 2000
	totalFlipped := 0
	s := uint64(0x0123456789abcdef)
	for i := 0; i < trials; i++ {
		seg := uint64(i)
		h0 := f.Next(s, seg)
		// Flip one bit of the segment input.
		h1 := f.Next(s, seg^(1<<uint(i%8)))
		totalFlipped += popcount(h0 ^ h1)
		s = h0
	}
	mean := float64(totalFlipped) / trials
	if mean < 28 || mean > 36 {
		t.Fatalf("avalanche mean flipped bits = %.2f, want close to 32", mean)
	}
}

// TestNextUniformity checks that each output bit is set about half the time.
func TestNextUniformity(t *testing.T) {
	f := NewFamily(11)
	const trials = 4096
	counts := make([]int, 64)
	s := uint64(1)
	for i := 0; i < trials; i++ {
		s = f.Next(s, uint64(i&0xff))
		for b := 0; b < 64; b++ {
			if s&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.5) > 0.06 {
			t.Fatalf("output bit %d set fraction %.3f, want about 0.5", b, frac)
		}
	}
}

func TestWordDistinctPerIndex(t *testing.T) {
	f := NewFamily(3)
	s := uint64(0xfeedface)
	seen := map[uint64]uint32{}
	for idx := uint32(0); idx < 256; idx++ {
		w := f.Word(s, idx)
		if prev, dup := seen[w]; dup {
			t.Fatalf("Word collision between indices %d and %d", prev, idx)
		}
		seen[w] = idx
	}
}

func TestBitRangeMatchesWord(t *testing.T) {
	f := NewFamily(17)
	s := uint64(0xabcdef0123456789)
	w0 := f.Word(s, 0)
	// Full first word.
	if got := f.BitRange(s, 0, 64); got != w0 {
		t.Fatalf("BitRange(0,64) = %x, want %x", got, w0)
	}
	// First 20 bits must equal the top 20 bits of word 0.
	if got, want := f.BitRange(s, 0, 20), w0>>44; got != want {
		t.Fatalf("BitRange(0,20) = %x, want %x", got, want)
	}
	// Bits 20..40.
	if got, want := f.BitRange(s, 20, 20), (w0>>24)&0xfffff; got != want {
		t.Fatalf("BitRange(20,20) = %x, want %x", got, want)
	}
}

func TestBitRangeStraddlesWords(t *testing.T) {
	f := NewFamily(23)
	s := uint64(0x1122334455667788)
	w0 := f.Word(s, 0)
	w1 := f.Word(s, 1)
	// 20 bits starting at offset 56: 8 bits from w0, 12 bits from w1.
	want := (w0&0xff)<<12 | w1>>52
	if got := f.BitRange(s, 56, 20); got != want {
		t.Fatalf("straddling BitRange = %x, want %x", got, want)
	}
}

func TestBitRangeWidthBounds(t *testing.T) {
	f := NewFamily(5)
	if got := f.BitRange(77, 10, 0); got != 0 {
		t.Fatalf("zero-width BitRange = %x, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BitRange with n>64 did not panic")
		}
	}()
	f.BitRange(77, 0, 65)
}

// TestBitRangeConcatenation verifies that reading the stream in arbitrary
// chunk sizes yields the same bits as reading it word by word. This is a
// property-based test over (offset, width) pairs.
func TestBitRangeConcatenation(t *testing.T) {
	f := NewFamily(31)
	prop := func(sv uint64, startRaw uint16, widthRaw uint8) bool {
		start := uint(startRaw % 512)
		width := uint(widthRaw%64) + 1
		got := f.BitRange(sv, start, width)
		// Recompute bit by bit.
		var want uint64
		for i := uint(0); i < width; i++ {
			bitPos := start + i
			w := f.Word(sv, uint32(bitPos/64))
			bit := (w >> (63 - bitPos%64)) & 1
			want = want<<1 | bit
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNextCollisionFreeOverSegments checks that for a fixed spine value the
// 2^k successor spine values (k=8) are all distinct, which the decoding tree
// construction relies on in practice.
func TestNextCollisionFreeOverSegments(t *testing.T) {
	f := NewFamily(1234)
	s := f.Next(0, 99)
	seen := map[uint64]bool{}
	for seg := uint64(0); seg < 256; seg++ {
		v := f.Next(s, seg)
		if seen[v] {
			t.Fatalf("spine collision for segment %d", seg)
		}
		seen[v] = true
	}
}

// TestBatchMatchesScalar pins Children and Words to Next and Word bit for
// bit: random seeds (seed 0 included), every segment below 2^16 of one
// parent, and word indices at both ends of the 32-bit range, where the salt
// arithmetic would first go wrong.
func TestBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	seeds := []uint64{0, 1, ^uint64(0)}
	for i := 0; i < 5; i++ {
		seeds = append(seeds, r.Uint64())
	}
	kids := make([]uint64, 1<<16)
	spines := make([]uint64, 257)
	words := make([]uint64, len(spines))
	for _, seed := range seeds {
		f := NewFamily(seed)
		for _, parent := range []uint64{0, r.Uint64()} {
			f.Children(kids, parent)
			for seg, got := range kids {
				if want := f.Next(parent, uint64(seg)); got != want {
					t.Fatalf("seed %x: Children(%x)[%d] = %x, Next = %x", seed, parent, seg, got, want)
				}
			}
		}
		for j := range spines {
			spines[j] = r.Uint64()
		}
		spines[0] = 0
		for _, idx := range []uint32{0, 1, 1 << 31, math.MaxUint32 - 1, math.MaxUint32} {
			// A batch of every length up to the buffer's, each a prefix.
			for _, n := range []int{0, 1, 63, 64, 65, len(spines)} {
				clear(words)
				f.Words(words, spines[:n], idx)
				for j, got := range words[:n] {
					if want := f.Word(spines[j], idx); got != want {
						t.Fatalf("seed %x idx %d: Words[%d] = %x, Word = %x", seed, idx, j, got, want)
					}
				}
				for j, got := range words[n:] {
					if got != 0 {
						t.Fatalf("seed %x idx %d: Words over %d spines wrote dst[%d]", seed, idx, n, n+j)
					}
				}
			}
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkNext(b *testing.B) {
	f := NewFamily(42)
	s := uint64(1)
	for i := 0; i < b.N; i++ {
		s = f.Next(s, uint64(i)&0xff)
	}
	sinkU64 = s
}

func BenchmarkWord(b *testing.B) {
	f := NewFamily(42)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= f.Word(uint64(i), uint32(i)&7)
	}
	sinkU64 = acc
}

// BenchmarkChildren reports the cost of one child spine value when a
// parent's 2^8 children are hashed together, for comparison with
// BenchmarkNext.
func BenchmarkChildren(b *testing.B) {
	f := NewFamily(42)
	kids := make([]uint64, 256)
	s := uint64(1)
	for i := 0; i < b.N; i++ {
		f.Children(kids, s)
		s = kids[i&0xff]
	}
	sinkU64 = s
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kids)), "ns/value")
}

// BenchmarkWords reports the cost of one expansion word when a 64-spine
// chunk is hashed together, as the decoder's cost fold does, for comparison
// with BenchmarkWord.
func BenchmarkWords(b *testing.B) {
	f := NewFamily(42)
	spines := make([]uint64, 64)
	for j := range spines {
		spines[j] = uint64(j) * phi64
	}
	words := make([]uint64, len(spines))
	var acc uint64
	for i := 0; i < b.N; i++ {
		f.Words(words, spines, uint32(i)&7)
		acc ^= words[i&63]
	}
	sinkU64 = acc
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spines)), "ns/value")
}

var sinkU64 uint64
