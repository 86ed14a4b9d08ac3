package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spinal/internal/rng"
)

// This file pins the exact-search decoder to golden fingerprints recorded
// from the decoder as it stood before the approximate-search modes landed.
// SearchExact must remain bit-identical to that decoder — same messages, same
// costs, and the NodesExpanded of a decode from the root. Any engine change
// that perturbs the exact path trips these constants.

// exactPinParams is the fixed operating point the fingerprints are recorded
// at: the Figure 2 code geometry with a shorter message so the matrix of
// configurations stays fast.
func exactPinParams() Params {
	return Params{K: 8, C: 10, MessageBits: 96, Seed: DefaultSeed}
}

const (
	exactPinTrials = 3
	exactPinPasses = 4
	exactPinBeam   = 16
)

// awgnPinObservations writes the per-trial received symbols for the AWGN
// fingerprint: a seeded message sent over seeded Gaussian noise, one decode
// attempt per pass.
func awgnPinStream(t *testing.T, trial int) (msg []byte, byPass [][]complex128) {
	t.Helper()
	p := exactPinParams()
	msg = RandomMessage(rng.New(uint64(trial+1)*0x9e3779b9), p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	noise := rng.New(uint64(trial+1) * 0xbb67ae85)
	byPass = make([][]complex128, exactPinPasses)
	for pass := range byPass {
		row := make([]complex128, p.NumSegments())
		for s := range row {
			// ~10 dB: per-dimension deviation 0.22 on the unit-energy grid.
			row[s] = enc.Symbol(s, pass) +
				complex(0.22*noise.NormFloat64(), 0.22*noise.NormFloat64())
		}
		byPass[pass] = row
	}
	return msg, byPass
}

// bscPinStream is the binary-channel counterpart: coded bits flipped with
// probability 0.03.
func bscPinStream(t *testing.T, trial int) (msg []byte, byPass [][]byte) {
	t.Helper()
	p := exactPinParams()
	msg = RandomMessage(rng.New(uint64(trial+1)*0x5851f42d), p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	noise := rng.New(uint64(trial+1) * 0x14057b7e)
	byPass = make([][]byte, exactPinPasses)
	for pass := range byPass {
		row := make([]byte, p.NumSegments())
		for s := range row {
			b := enc.CodedBit(s, pass)
			if noise.Bernoulli(0.03) {
				b ^= 1
			}
			row[s] = b
		}
		byPass[pass] = row
	}
	return msg, byPass
}

// exactFingerprints decodes the fixed trial set over one channel kind with
// one reused decoder and returns two FNV-1a fingerprints: one over the
// decode results (message bytes and exact cost bits) and one over the work
// counters.
func exactFingerprints(t *testing.T, bits bool) (result, work uint64) {
	t.Helper()
	p := exactPinParams()
	dec, err := NewBeamDecoder(p, exactPinBeam)
	if err != nil {
		t.Fatal(err)
	}

	hr, hw := fnv.New64a(), fnv.New64a()
	record := func(trial, pass int, out *DecodeResult) {
		fmt.Fprintf(hr, "%d/%d:%x:%x;", trial, pass, out.Message, math.Float64bits(out.Cost))
		// The trailing 0 is the refreshed-node count of the decoder the
		// goldens were recorded from, which a decode from the root left at 0.
		fmt.Fprintf(hw, "%d/%d:%d:0;", trial, pass, out.NodesExpanded)
	}
	for trial := 0; trial < exactPinTrials; trial++ {
		if bits {
			_, byPass := bscPinStream(t, trial)
			obs, err := NewBitObservations(p.NumSegments())
			if err != nil {
				t.Fatal(err)
			}
			for pass, row := range byPass {
				for s, b := range row {
					if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, b); err != nil {
						t.Fatal(err)
					}
				}
				out, err := dec.DecodeBits(obs)
				if err != nil {
					t.Fatal(err)
				}
				record(trial, pass, out)
			}
		} else {
			_, byPass := awgnPinStream(t, trial)
			obs, err := NewObservations(p.NumSegments())
			if err != nil {
				t.Fatal(err)
			}
			for pass, row := range byPass {
				for s, y := range row {
					if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
						t.Fatal(err)
					}
				}
				out, err := dec.Decode(obs)
				if err != nil {
					t.Fatal(err)
				}
				record(trial, pass, out)
			}
		}
	}
	return hr.Sum64(), hw.Sum64()
}

// Golden fingerprints recorded from the pre-approximate-search decoder,
// keyed by channel kind; "float64" names the path-cost arithmetic they were
// recorded with.
var exactPinResultGolden = map[string]uint64{
	"awgn/float64": 0x1268fe4ab3350bfd,
	"bsc/float64":  0x4ecfefbb8904a834,
}

var exactPinWorkGolden = map[string]uint64{
	// Every decode from the root expands the same tree shape.
	"awgn/float64": 0x9e2c2d02c5e24b85,
	"bsc/float64":  0x9e2c2d02c5e24b85,
}

// TestExactSearchPinnedToPreApproxDecoder pins exact-mode decodes over
// channel {AWGN,BSC} to the golden fingerprints recorded before the
// approximate-search engine changes.
func TestExactSearchPinnedToPreApproxDecoder(t *testing.T) {
	for _, bits := range []bool{false, true} {
		kind := "awgn"
		if bits {
			kind = "bsc"
		}
		result, work := exactFingerprints(t, bits)
		key := kind + "/float64"
		if want := exactPinResultGolden[key]; result != want {
			t.Errorf("result fingerprint %s = %#016x, want %#016x", key, result, want)
		}
		if want := exactPinWorkGolden[key]; work != want {
			t.Errorf("work fingerprint %s = %#016x, want %#016x", key, work, want)
		}
	}
}
