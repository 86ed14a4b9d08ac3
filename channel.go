package spinal

import (
	"spinal/internal/capacity"
	"spinal/internal/core"
	"spinal/internal/crc"
	"spinal/internal/rng"
)

// This file holds the small utilities a library user needs to run spinal
// codes end to end: random message generation, CRC framing and capacity
// references.

// RandomMessage returns a uniformly random packed message of n bits, suitable
// as input to Code.EncodeStream for a code with MessageBits == n.
func RandomMessage(n int, seed uint64) []byte {
	return core.RandomMessage(rng.New(seed), n)
}

// AppendCRC32 appends a CRC-32 to a payload so the receiver can detect
// successful decoding without a genie; VerifyCRC32 checks and strips it.
func AppendCRC32(payload []byte) []byte {
	return crc.Append32(append([]byte(nil), payload...))
}

// VerifyCRC32 checks a buffer produced by AppendCRC32, returning the payload
// and whether the checksum matched.
func VerifyCRC32(buf []byte) ([]byte, bool) {
	return crc.Verify32(buf)
}

// ShannonCapacity returns the AWGN channel capacity in bits per symbol at the
// given SNR in dB, the reference curve of Figure 2.
func ShannonCapacity(snrDB float64) float64 {
	return capacity.AWGNdB(snrDB)
}

// BSCCapacity returns the capacity of a binary symmetric channel with
// crossover probability p.
func BSCCapacity(p float64) float64 {
	return capacity.BSC(p)
}
