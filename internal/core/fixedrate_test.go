package core

import (
	"testing"

	"spinal/internal/impair"
	"spinal/internal/rng"
)

func TestFixedRateBasics(t *testing.T) {
	p := DefaultParams()
	f, err := NewFixedRate(p, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if f.Passes() != 4 || f.BlockSymbols() != 12 {
		t.Fatalf("passes=%d blockSymbols=%d", f.Passes(), f.BlockSymbols())
	}
	if got := f.Rate(); got != 2 {
		t.Fatalf("rate = %v, want 2 bits/symbol", got)
	}
	if f.Params().K != p.K {
		t.Fatal("params not preserved")
	}
}

func TestFixedRateValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewFixedRate(p, 0, 16); err == nil {
		t.Error("zero passes accepted")
	}
	if _, err := NewFixedRate(p, 2, 0); err == nil {
		t.Error("zero beam accepted")
	}
	bad := p
	bad.K = 0
	if _, err := NewFixedRate(bad, 2, 16); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestFixedRateNoiselessRoundTrip(t *testing.T) {
	p := Params{K: 6, C: 8, MessageBits: 48, Seed: 11}
	f, err := NewFixedRate(p, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	for trial := 0; trial < 10; trial++ {
		msg := RandomMessage(src, p.MessageBits)
		block, err := f.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(block) != f.BlockSymbols() {
			t.Fatalf("block has %d symbols", len(block))
		}
		got, err := f.Decode(block)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(got, msg, p.MessageBits) {
			t.Fatalf("trial %d: noiseless fixed-rate round trip failed", trial)
		}
	}
}

func TestFixedRateUnderNoise(t *testing.T) {
	// Rate 2 bits/symbol (4 passes of a k=8 code) at 12 dB (capacity ~4):
	// essentially every block should decode.
	p := DefaultParams()
	f, _ := NewFixedRate(p, 4, 16)
	ch, _ := impair.NewAWGN(12, rng.New(3))
	src := rng.New(4)
	correct := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		msg := RandomMessage(src, p.MessageBits)
		block, _ := f.Encode(msg)
		rx := make([]complex128, len(block))
		for i, x := range block {
			rx[i] = ch.Corrupt(x)
		}
		got, err := f.Decode(rx)
		if err != nil {
			t.Fatal(err)
		}
		if EqualMessages(got, msg, p.MessageBits) {
			correct++
		}
	}
	if correct < trials-2 {
		t.Fatalf("only %d/%d fixed-rate blocks decoded at 12 dB", correct, trials)
	}
}

func TestFixedRateFailsAboveCapacity(t *testing.T) {
	// One pass (8 bits/symbol) at 6 dB (capacity ~2.6) cannot work: most
	// blocks must fail, demonstrating why the rateless mode matters.
	p := DefaultParams()
	f, _ := NewFixedRate(p, 1, 16)
	ch, _ := impair.NewAWGN(6, rng.New(5))
	src := rng.New(6)
	correct := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		msg := RandomMessage(src, p.MessageBits)
		block, _ := f.Encode(msg)
		rx := make([]complex128, len(block))
		for i, x := range block {
			rx[i] = ch.Corrupt(x)
		}
		got, _ := f.Decode(rx)
		if EqualMessages(got, msg, p.MessageBits) {
			correct++
		}
	}
	if correct > trials/2 {
		t.Fatalf("%d/%d blocks decoded far above capacity; something is wrong", correct, trials)
	}
}

func TestFixedRateDecodeLengthCheck(t *testing.T) {
	p := DefaultParams()
	f, _ := NewFixedRate(p, 2, 16)
	if _, err := f.Decode(make([]complex128, 5)); err == nil {
		t.Error("wrong block length accepted")
	}
}
