// Package channel defines the channel contracts the rest of the repo codes
// against — SymbolChannel, BlockChannel and BitChannel — and implements the
// binary channels: the binary symmetric channel (BSC) of the paper's binary
// variant and the binary erasure channel (BEC) of the fountain-code
// baseline. Every symbol channel (AWGN, the §5 ADC front end, fading, and
// the composite stacks) is an internal/impair pipeline.
package channel

import (
	"fmt"

	"spinal/internal/rng"
)

// SymbolChannel corrupts complex (I-Q) symbols.
type SymbolChannel interface {
	// Corrupt returns the received value for a single transmitted symbol.
	Corrupt(x complex128) complex128
}

// BlockChannel corrupts whole blocks of symbols: dst[i] receives the channel
// output for src[i], in slice order (stateful channels consume their noise
// stream exactly as the equivalent sequence of Corrupt calls would). dst and
// src have equal length and may alias. Every impair pipeline implements it.
type BlockChannel interface {
	CorruptBlock(dst, src []complex128)
}

// BitChannel corrupts individual bits (values 0 or 1).
type BitChannel interface {
	// CorruptBit returns the received value of a single transmitted bit.
	CorruptBit(b byte) byte
}

// BSC is a binary symmetric channel with crossover probability p.
type BSC struct {
	p   float64
	src *rng.Rand
}

// NewBSC returns a BSC with crossover probability p in [0, 0.5].
func NewBSC(p float64, src *rng.Rand) (*BSC, error) {
	if p < 0 || p > 0.5 {
		return nil, fmt.Errorf("channel: BSC crossover probability must be in [0,0.5], got %v", p)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &BSC{p: p, src: src}, nil
}

// P returns the crossover probability.
func (b *BSC) P() float64 { return b.p }

// Name identifies the channel in experiment output.
func (b *BSC) Name() string { return fmt.Sprintf("bsc(p=%.3f)", b.p) }

// CorruptBit flips the bit with probability p.
func (b *BSC) CorruptBit(bit byte) byte {
	if b.src.Bernoulli(b.p) {
		return bit ^ 1
	}
	return bit
}

// CorruptBits corrupts a block of bits (values 0/1) into dst, flipping each
// with probability p; dst and src have equal length and may alias.
func (b *BSC) CorruptBits(dst, src []byte) {
	for i, v := range src {
		dst[i] = b.CorruptBit(v)
	}
}

// Erased marks an erased position in BEC output.
const Erased = byte(2)

// BEC is a binary erasure channel with erasure probability p. Erased bits are
// reported with the value Erased.
type BEC struct {
	p   float64
	src *rng.Rand
}

// NewBEC returns a BEC with erasure probability p in [0, 1).
func NewBEC(p float64, src *rng.Rand) (*BEC, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("channel: BEC erasure probability must be in [0,1), got %v", p)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &BEC{p: p, src: src}, nil
}

// P returns the erasure probability.
func (b *BEC) P() float64 { return b.p }

// Name identifies the channel in experiment output.
func (b *BEC) Name() string { return fmt.Sprintf("bec(p=%.3f)", b.p) }

// CorruptBit erases the bit with probability p.
func (b *BEC) CorruptBit(bit byte) byte {
	if b.src.Bernoulli(b.p) {
		return Erased
	}
	return bit
}

// CorruptBits corrupts a block of bits into dst, erasing each with
// probability p (erased slots carry the value Erased); dst and src have
// equal length and may alias.
func (b *BEC) CorruptBits(dst, src []byte) {
	for i, v := range src {
		dst[i] = b.CorruptBit(v)
	}
}
