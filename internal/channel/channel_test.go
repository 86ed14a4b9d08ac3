package channel

import (
	"math"
	"testing"

	"spinal/internal/rng"
)

func TestBSCCrossoverRate(t *testing.T) {
	src := rng.New(7)
	ch, err := NewBSC(0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	flips := 0
	for i := 0; i < n; i++ {
		if ch.CorruptBit(0) == 1 {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-0.2) > 0.01 {
		t.Fatalf("flip rate = %v, want 0.2", rate)
	}
}

func TestBSCPreservesAlphabet(t *testing.T) {
	src := rng.New(8)
	ch, _ := NewBSC(0.5, src)
	for i := 0; i < 1000; i++ {
		if v := ch.CorruptBit(byte(i & 1)); v != 0 && v != 1 {
			t.Fatalf("BSC emitted non-bit value %d", v)
		}
	}
	bits := []byte{0, 1, 1, 0, 1}
	out := make([]byte, len(bits))
	ch.CorruptBits(out, bits)
	for i, v := range out {
		if v != 0 && v != 1 {
			t.Fatalf("CorruptBits emitted non-bit value %d at %d", v, i)
		}
	}
}

func TestBSCZeroNoiseless(t *testing.T) {
	src := rng.New(9)
	ch, _ := NewBSC(0, src)
	for i := 0; i < 100; i++ {
		if ch.CorruptBit(1) != 1 || ch.CorruptBit(0) != 0 {
			t.Fatal("BSC with p=0 altered a bit")
		}
	}
}

func TestBSCInvalid(t *testing.T) {
	src := rng.New(10)
	if _, err := NewBSC(0.6, src); err == nil {
		t.Error("BSC p>0.5 accepted")
	}
	if _, err := NewBSC(-0.1, src); err == nil {
		t.Error("BSC p<0 accepted")
	}
	if _, err := NewBSC(0.1, nil); err == nil {
		t.Error("BSC nil source accepted")
	}
}

func TestBECErasureRate(t *testing.T) {
	src := rng.New(11)
	ch, err := NewBEC(0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	erased, flipped := 0, 0
	for i := 0; i < n; i++ {
		switch ch.CorruptBit(1) {
		case Erased:
			erased++
		case 0:
			flipped++
		}
	}
	if flipped != 0 {
		t.Fatalf("BEC flipped %d bits", flipped)
	}
	rate := float64(erased) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("erasure rate = %v, want 0.3", rate)
	}
}

func TestBECInvalid(t *testing.T) {
	src := rng.New(12)
	if _, err := NewBEC(1.0, src); err == nil {
		t.Error("BEC p=1 accepted")
	}
	if _, err := NewBEC(0.1, nil); err == nil {
		t.Error("BEC nil source accepted")
	}
}
