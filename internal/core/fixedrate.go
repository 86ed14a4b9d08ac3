package core

import "fmt"

// This file implements the fixed-rate instantiation of spinal codes mentioned
// in §3 of the paper ("It is straightforward to adapt the code to run at
// various fixed rates"): the encoder emits exactly L passes of symbols and
// the decoder makes a single attempt from that fixed block. Fixed-rate
// operation is what a spinal code would look like dropped into a conventional
// PHY that cannot carry feedback; it also provides the apples-to-apples
// object to compare against rated block codes at the same rate.

// FixedRateCode is a spinal code operated at a fixed number of passes.
type FixedRateCode struct {
	params Params
	passes int
	beam   int
}

// NewFixedRate returns a spinal code that always transmits exactly `passes`
// passes (so its rate is MessageBits / (passes * NumSegments) bits per
// symbol) and decodes with beam width B.
func NewFixedRate(p Params, passes, beamWidth int) (*FixedRateCode, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if passes < 1 {
		return nil, fmt.Errorf("core: fixed-rate code needs at least one pass, got %d", passes)
	}
	if beamWidth < 1 {
		return nil, fmt.Errorf("core: beam width must be >= 1, got %d", beamWidth)
	}
	return &FixedRateCode{params: p, passes: passes, beam: beamWidth}, nil
}

// Params returns the underlying code parameters.
func (f *FixedRateCode) Params() Params { return f.params }

// Passes returns the fixed number of encoding passes.
func (f *FixedRateCode) Passes() int { return f.passes }

// BlockSymbols returns the number of symbols per coded block.
func (f *FixedRateCode) BlockSymbols() int {
	return f.passes * f.params.NumSegments()
}

// Rate returns the code rate in message bits per symbol.
func (f *FixedRateCode) Rate() float64 {
	return float64(f.params.MessageBits) / float64(f.BlockSymbols())
}

// Encode produces the full fixed-rate block of symbols for a message, in
// pass-major order (all symbols of pass 0, then pass 1, ...).
func (f *FixedRateCode) Encode(message []byte) ([]complex128, error) {
	enc, err := NewEncoder(f.params, message)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, f.BlockSymbols())
	for pass := 0; pass < f.passes; pass++ {
		out = append(out, enc.Pass(pass)...)
	}
	return out, nil
}

// Decode runs one beam-decode over a received fixed-rate block (same order as
// Encode) and returns the most likely message.
func (f *FixedRateCode) Decode(received []complex128) ([]byte, error) {
	dec, err := NewBeamDecoder(f.params, f.beam)
	if err != nil {
		return nil, err
	}
	obs, err := NewObservations(f.params.NumSegments())
	if err != nil {
		return nil, err
	}
	return f.DecodeWith(dec, obs, received)
}

// DecodeWith is Decode on a caller-supplied decoder/observation pair — e.g.
// a DecoderPool lease — which must be empty (a new lease qualifies). Pooled
// and fresh pairs decode bit-identically, so the choice only affects
// allocations.
func (f *FixedRateCode) DecodeWith(dec *BeamDecoder, obs *Observations, received []complex128) ([]byte, error) {
	if len(received) != f.BlockSymbols() {
		return nil, fmt.Errorf("core: fixed-rate block has %d symbols, want %d",
			len(received), f.BlockSymbols())
	}
	nseg := f.params.NumSegments()
	for i, y := range received {
		pos := SymbolPos{Spine: i % nseg, Pass: i / nseg}
		if err := obs.Add(pos, y); err != nil {
			return nil, err
		}
	}
	out, err := dec.Decode(obs)
	if err != nil {
		return nil, err
	}
	return out.Message, nil
}
