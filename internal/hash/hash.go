// Package hash implements the salted 64-bit hash family at the heart of spinal
// codes (Perry, Balakrishnan, Shah, HotNets 2011).
//
// The paper models the hash as a random function
//
//	h : [0,1) x {0,1}^k -> [0,1)
//
// with uniform, pairwise-independent outputs. This package represents the
// [0,1) values as 64-bit words (v = s / 2^64) and provides:
//
//   - Next: the spine transition s_t = h(s_{t-1}, M_t), and
//   - Word / BitRange: the "infinite precision" expansion of a spine value into
//     a pseudo-random bit stream, realized by repeated hashing of the spine
//     value with known salts (the construction suggested in §3.1 of the paper).
//   - Children / Words: the same two functions over a batch, for the decoder's
//     hash replay. Children hashes every child of one parent spine value and
//     Words one expansion word of many spine values. Each computes the terms
//     shared by the whole batch once and hashes the batch in one loop, with no
//     call per value, and returns exactly what Next and Word return.
//
// The family is keyed by a seed shared by encoder and decoder. Hash values are
// fully deterministic given (seed, inputs), which is what lets the decoder
// "replay" the encoder.
package hash

import "math/bits"

// Mixing constants. The finalizer constants are the standard 64-bit avalanche
// constants (also used by MurmurHash3 and SplitMix64); the additive constants
// are odd 64-bit numbers derived from the golden ratio and sqrt(3).
const (
	mixMul1 = 0xff51afd7ed558ccd
	mixMul2 = 0xc4ceb9fe1a85ec53

	phi64    = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	sqrt3_64 = 0xbb67ae8584caa73b // frac(sqrt(3)) * 2^64, odd
	saltMul  = 0x2545f4914f6cdd1d // odd multiplier for pass salts
)

// Family is a keyed family of hash functions. The zero value is a valid family
// keyed with seed zero; encoder and decoder must use the same seed.
type Family struct {
	seed uint64
}

// NewFamily returns the hash function drawn from the family H identified by
// seed. Both the encoder and the decoder must be constructed with the same
// seed (the paper's shared random seed).
func NewFamily(seed uint64) Family {
	return Family{seed: seed}
}

// Seed returns the seed that identifies this hash function within the family.
func (f Family) Seed() uint64 { return f.seed }

// mix64 is a full-avalanche 64-bit finalizer: every input bit affects every
// output bit with probability close to 1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= mixMul1
	x ^= x >> 33
	x *= mixMul2
	x ^= x >> 33
	return x
}

// Next computes the next spine value h(s, seg), where seg holds the k message
// bits of the current segment in its low bits. It is the spine transition
// s_t = h(s_{t-1}, M_t) from §3.1 of the paper.
func (f Family) Next(s, seg uint64) uint64 {
	h := s ^ f.seed
	h = mix64(h + phi64 + seg*sqrt3_64)
	h = mix64(h ^ bits.RotateLeft64(seg, 29) ^ bits.RotateLeft64(f.seed, 47))
	return h
}

// Word returns the idx-th 64-bit word of the pseudo-random bit expansion of
// spine value s. Conceptually the spine value has an infinite-precision binary
// representation b1 b2 b3 ...; Word(s, 0) holds b1..b64 (MSB-first), Word(s, 1)
// holds b65..b128, and so on. The expansion is produced by re-hashing the spine
// value with the word index as a known salt.
func (f Family) Word(s uint64, idx uint32) uint64 {
	h := s ^ bits.RotateLeft64(f.seed, 13)
	h = mix64(h + (uint64(idx)+1)*saltMul)
	h = mix64(h ^ bits.RotateLeft64(s, 31) ^ uint64(idx)*phi64)
	return h
}

// Children sets dst[seg] = f.Next(s, seg) for every seg < len(dst): the
// spine values of all children of the parent spine value s, for segments
// 0, 1, ..., len(dst)-1. The terms that depend only on s and the seed are
// computed once for the batch.
func (f Family) Children(dst []uint64, s uint64) {
	h := (s ^ f.seed) + phi64
	rs := bits.RotateLeft64(f.seed, 47)
	for seg := range dst {
		g := uint64(seg)
		x := mix64(h + g*sqrt3_64)
		dst[seg] = mix64(x ^ bits.RotateLeft64(g, 29) ^ rs)
	}
}

// Words sets dst[j] = f.Word(spines[j], idx) for every j < len(spines); dst
// must be at least as long as spines. The salts that depend only on idx and
// the seed are computed once for the batch, and the values are hashed in one
// loop of independent chains, which the CPU overlaps.
func (f Family) Words(dst, spines []uint64, idx uint32) {
	dst = dst[:len(spines)]
	rs := bits.RotateLeft64(f.seed, 13)
	salt := (uint64(idx) + 1) * saltMul
	ip := uint64(idx) * phi64
	for j, s := range spines {
		x := mix64((s ^ rs) + salt)
		dst[j] = mix64(x ^ bits.RotateLeft64(s, 31) ^ ip)
	}
}

// BitRange extracts n bits (1 <= n <= 64) of the expansion of spine value s,
// starting at bit offset start (0-based, MSB-first within each word). The
// result is returned right-aligned in the low n bits of the return value.
//
// This is the operation the encoder uses to pull the 2c bits
// b_{2c(l-1)+1} ... b_{2c*l} consumed by pass l (§3.1, step 2).
func (f Family) BitRange(s uint64, start, n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n > 64 {
		panic("hash: BitRange width exceeds 64 bits")
	}
	wordIdx := uint32(start / 64)
	bitOff := start % 64
	w := f.Word(s, wordIdx)
	if bitOff+n <= 64 {
		return (w >> (64 - bitOff - n)) & maskN(n)
	}
	// The range straddles two words.
	hiBits := 64 - bitOff
	loBits := n - hiBits
	hi := w & maskN(hiBits)
	lo := f.Word(s, wordIdx+1) >> (64 - loBits)
	return hi<<loBits | lo
}

// maskN returns a mask with the low n bits set (n in 1..64).
func maskN(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}
