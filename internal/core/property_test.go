package core

import (
	"testing"
	"testing/quick"

	"spinal/internal/rng"
)

// Property-style tests on invariants of the encoder/decoder pair that must
// hold for arbitrary parameters and messages, not just the Figure 2 setup.

// TestDecoderOutputAlwaysWellFormed checks that whatever observations the
// decoder is given (including nonsense), its output is a syntactically valid
// message: correct byte length and zero padding bits.
func TestDecoderOutputAlwaysWellFormed(t *testing.T) {
	prop := func(seed uint64, kRaw, bitsRaw uint8, obsCount uint8) bool {
		k := int(kRaw%8) + 1
		bits := int(bitsRaw%40) + 1
		p := Params{K: k, C: 6, MessageBits: bits, Seed: seed}
		dec, err := NewBeamDecoder(p, 4)
		if err != nil {
			return false
		}
		obs, err := NewObservations(p.NumSegments())
		if err != nil {
			return false
		}
		src := rng.New(seed ^ 0xabcdef)
		for i := 0; i < int(obsCount%16); i++ {
			pos := SymbolPos{Spine: src.Intn(p.NumSegments()), Pass: src.Intn(4)}
			y := complex(2*src.Float64()-1, 2*src.Float64()-1)
			if obs.Add(pos, y) != nil {
				return false
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			return false
		}
		return checkMessage(p, out.Message) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeRoundTripAcrossParameters checks the fundamental contract
// (two noiseless passes decode exactly) across a range of K, C and message
// lengths, including lengths that are not multiples of K.
func TestEncodeDecodeRoundTripAcrossParameters(t *testing.T) {
	prop := func(seed uint64, kRaw, cRaw, bitsRaw uint8) bool {
		k := int(kRaw%6) + 2        // 2..7
		c := int(cRaw%9) + 4        // 4..12
		bits := int(bitsRaw%56) + 8 // 8..63
		p := Params{K: k, C: c, MessageBits: bits, Seed: seed | 1}
		msg := RandomMessage(rng.New(seed^0x1234), bits)
		enc, err := NewEncoder(p, msg)
		if err != nil {
			return false
		}
		obs, err := NewObservations(p.NumSegments())
		if err != nil {
			return false
		}
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < p.NumSegments(); s++ {
				if obs.Add(SymbolPos{Spine: s, Pass: pass}, enc.Symbol(s, pass)) != nil {
					return false
				}
			}
		}
		dec, err := NewBeamDecoder(p, 32)
		if err != nil {
			return false
		}
		out, err := dec.Decode(obs)
		if err != nil {
			return false
		}
		return EqualMessages(out.Message, msg, bits)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSpineDeterministicAcrossEncoderInstances checks that the spine is a
// pure function of (params, message): fresh encoders always agree.
func TestSpineDeterministicAcrossEncoderInstances(t *testing.T) {
	prop := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%64) + 1
		p := Params{K: 4, C: 8, MessageBits: bits, Seed: seed}
		msg := RandomMessage(rng.New(seed^77), bits)
		a, err := NewEncoder(p, msg)
		if err != nil {
			return false
		}
		b, err := NewEncoder(p, msg)
		if err != nil {
			return false
		}
		sa, sb := a.Spine(), b.Spine()
		if len(sa) != len(sb) || len(sa) != p.NumSegments() {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBitSessionNeverExceedsOneBitPerUse checks an information-theoretic
// sanity bound on the binary-channel session: a successful decode can never
// claim a rate above 1 bit per channel use (plus nothing — the session
// enforces a minimum number of uses).
func TestBitSessionNeverExceedsOneBitPerUse(t *testing.T) {
	prop := func(seed uint64, bitsRaw uint8) bool {
		bits := int(bitsRaw%24) + 8
		p := Params{K: 4, C: 8, MessageBits: bits, Seed: seed | 1}
		msg := RandomMessage(rng.New(seed^31), bits)
		cfg := SessionConfig{Params: p, BeamWidth: 8, Attempts: AttemptEverySymbol{}, MaxSymbols: 50 * p.NumSegments()}
		res, err := RunBitChannelSession(cfg, msg, noiselessBits(), GenieVerifier(msg, bits))
		if err != nil {
			return false
		}
		if !res.Success {
			return false
		}
		return res.Rate(bits) <= 1.0+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
