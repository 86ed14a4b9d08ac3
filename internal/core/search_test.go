package core

import (
	"strings"
	"testing"

	"spinal/internal/impair"
	"spinal/internal/rng"
)

// searchModes is every search strategy, exact first.
var searchModes = []SearchMode{SearchExact, SearchApprox}

// TestParseSearchMode checks the CLI spellings, their round trip through
// String, and that every other spelling — including the retired
// gap[:G]/lookahead[:M] grammar — is rejected with an error naming the valid
// modes.
func TestParseSearchMode(t *testing.T) {
	good := []struct {
		in   string
		want SearchMode
	}{
		{"", SearchExact},
		{"exact", SearchExact},
		{"approx", SearchApprox},
	}
	for _, tc := range good {
		got, err := ParseSearchMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSearchMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			continue
		}
		if back, err := ParseSearchMode(got.String()); err != nil || back != got {
			t.Errorf("round trip of %q through %q: %v, %v", tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"fuzzy", "gap", "gap:4", "lookahead", "lookahead:6", "approx:3", "exact:1", "Approx"} {
		_, err := ParseSearchMode(bad)
		if err == nil {
			t.Errorf("ParseSearchMode(%q) unexpectedly succeeded", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "exact") || !strings.Contains(msg, "approx") {
			t.Errorf("ParseSearchMode(%q) error %q does not name the valid modes", bad, msg)
		}
	}
}

// TestSetSearchModeValidates checks that installed modes read back, that
// exact resets cleanly, and that an unknown mode is rejected without
// changing the installed one.
func TestSetSearchModeValidates(t *testing.T) {
	dec, err := NewBeamDecoder(exactPinParams(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetSearchMode(SearchApprox); err != nil {
		t.Fatal(err)
	}
	if got := dec.SearchMode(); got != SearchApprox {
		t.Fatalf("installed approx, read back %v", got)
	}
	if err := dec.SetSearchMode(SearchMode(9)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if got := dec.SearchMode(); got != SearchApprox {
		t.Fatalf("rejected mode changed the installed one to %v", got)
	}
	if err := dec.SetSearchMode(SearchExact); err != nil {
		t.Fatal(err)
	}
	if got := dec.SearchMode(); got != SearchExact {
		t.Fatalf("installed exact, read back %v", got)
	}
}

// TestBubbleParents pins W = max(2, B/8).
func TestBubbleParents(t *testing.T) {
	for _, tc := range []struct{ b, want int }{{1, 2}, {8, 2}, {16, 2}, {24, 3}, {32, 4}, {64, 8}, {256, 32}} {
		if got := bubbleParents(tc.b); got != tc.want {
			t.Errorf("bubbleParents(%d) = %d, want %d", tc.b, got, tc.want)
		}
	}
}

// TestApproxModesRoundTripNoiseless checks the fundamental contract of the
// approximate mode: two noiseless passes still decode exactly.
func TestApproxModesRoundTripNoiseless(t *testing.T) {
	p := exactPinParams()
	msg, _ := awgnPinStream(t, 0)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBeamDecoder(p, exactPinBeam)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetSearchMode(SearchApprox); err != nil {
		t.Fatal(err)
	}
	obs, err := NewObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for s := 0; s < p.NumSegments(); s++ {
			if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, enc.Symbol(s, pass)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Error("noiseless round trip failed")
		}
	}
}

// capParams is the operating point of the bubble-cap tests: k = 4 keeps an
// unobserved level's exact breadth (B·2^k parents of 2^k children each)
// small enough to decode symbol by symbol, and capBeam = 16 makes the cap
// (W = 2 parents) bite.
func capParams() Params { return Params{K: 4, C: 8, MessageBits: 48, Seed: DefaultSeed} }

const capBeam = 16

// newCapDecoder returns a capParams decoder configured for one test case.
func newCapDecoder(t *testing.T, mode SearchMode) *BeamDecoder {
	t.Helper()
	dec, err := NewBeamDecoder(capParams(), capBeam)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetSearchMode(mode); err != nil {
		t.Fatal(err)
	}
	return dec
}

// capStream feeds one seeded transmission to the observation containers
// symbol by symbol in striped order — so levels gain their first
// observation one attempt at a time — calling attempt after every symbol
// with the number of symbols sent.
func capStream(t *testing.T, seed uint64, sigma float64, passes int, obs []*Observations, attempt func(sent int)) {
	t.Helper()
	p := capParams()
	sched, err := NewStripedSchedule(p.NumSegments(), 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(p, RandomMessage(rng.New(seed), p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	noise := rng.New(seed ^ 0xbb67ae85)
	for i := 0; i < passes*p.NumSegments(); i++ {
		pos := sched.Pos(i)
		y := enc.SymbolAt(pos) + complex(sigma*noise.NormFloat64(), sigma*noise.NormFloat64())
		for _, o := range obs {
			if err := o.Add(pos, y); err != nil {
				t.Fatal(err)
			}
		}
		attempt(i + 1)
	}
}

// pinSearchTranscript decodes two seeded capParams transmissions symbol by
// symbol under one search mode and returns every attempt's result. With
// reuse set one decoder runs every attempt; otherwise each attempt gets a
// fresh decoder.
func pinSearchTranscript(t *testing.T, mode SearchMode, reuse bool) []DecodeResult {
	t.Helper()
	dec := newCapDecoder(t, mode)
	var outs []DecodeResult
	for trial := uint64(1); trial <= 2; trial++ {
		obs, err := NewObservations(capParams().NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		capStream(t, trial*0x9e3779b9, 0.22, 4, []*Observations{obs}, func(int) {
			if !reuse {
				dec = newCapDecoder(t, mode)
			}
			out, err := dec.Decode(obs)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, *out)
		})
	}
	return outs
}

// sameResult reports whether two attempts decoded the same message at the
// same cost.
func sameResult(a, b *DecodeResult) bool {
	return string(a.Message) == string(b.Message) && a.Cost == b.Cost
}

// TestApproxIncrementalMatchesScratch checks that the bubble cap leaves
// nothing behind in a reused decoder: one decoder attempting after every
// symbol produces the same messages, costs and work counters as a fresh
// decoder per attempt, for both modes.
func TestApproxIncrementalMatchesScratch(t *testing.T) {
	for _, mode := range searchModes {
		reused := pinSearchTranscript(t, mode, true)
		fresh := pinSearchTranscript(t, mode, false)
		for i := range reused {
			r, f := &reused[i], &fresh[i]
			if !sameResult(r, f) || r.NodesExpanded != f.NodesExpanded || r.NodesSaved != f.NodesSaved {
				t.Fatalf("%v: reused decoder diverged from a fresh one at attempt %d: %+v vs %+v",
					mode, i, *r, *f)
			}
		}
	}
}

// TestApproxEqualsExactOnceObserved is the losslessness property of the
// bubble cap: symbols arrive one at a time in striped order, and on every
// attempt where each level has at least one observation the approximate
// decode returns the exact decode's message and cost while expanding no more
// nodes. It sweeps noise levels.
func TestApproxEqualsExactOnceObserved(t *testing.T) {
	nseg := capParams().NumSegments()
	sigmas := []float64{0.1, 0.22, 0.4, 0.7}
	trials, passes := 4, 5
	if testing.Short() {
		trials, passes = 2, 4
	}
	compared, saved := 0, 0
	exactDec := newCapDecoder(t, SearchExact)
	approxDec := newCapDecoder(t, SearchApprox)
	for si, sigma := range sigmas {
		for trial := 0; trial < trials; trial++ {
			var obs [2]*Observations
			for i := range obs {
				var err error
				if obs[i], err = NewObservations(nseg); err != nil {
					t.Fatal(err)
				}
			}
			seed := uint64(si*trials+trial+1) * 0x9e3779b97f4a7c15
			capStream(t, seed, sigma, passes, obs[:], func(sent int) {
				exact, err := exactDec.Decode(obs[0])
				if err != nil {
					t.Fatal(err)
				}
				approx, err := approxDec.Decode(obs[1])
				if err != nil {
					t.Fatal(err)
				}
				saved += approx.NodesSaved
				if sent < nseg {
					return // some level is still unobserved
				}
				compared++
				if !sameResult(exact, approx) || approx.NodesExpanded > exact.NodesExpanded {
					t.Fatalf("sigma=%v trial %d symbol %d: approx %+v, exact %+v",
						sigma, trial, sent, *approx, *exact)
				}
			})
		}
	}
	if compared == 0 || saved == 0 {
		t.Fatalf("vacuous run: %d fully observed attempts compared, %d nodes saved by the cap", compared, saved)
	}
}

// runApproxSession runs one fixed-seed session with per-symbol attempts
// under a search mode; the session-level search tests compare its
// transcript across modes.
func runApproxSession(t *testing.T, trial, passes int, search SearchMode) *Result {
	t.Helper()
	p := exactPinParams()
	msg := RandomMessage(rng.New(uint64(trial+1)*0x9e3779b9), p.MessageBits)
	// 10.14 dB: about 0.22 noise standard deviation per dimension.
	noise, err := impair.NewAWGN(10.14, rng.New(uint64(trial+1)*0xbb67ae85))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewStripedSchedule(p.NumSegments(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		Params: p, BeamWidth: exactPinBeam, Schedule: sched,
		MaxSymbols: passes * p.NumSegments(), Search: search,
		Attempts: AttemptEverySymbol{},
	}
	res, err := RunChannelSession(cfg, msg, noise, GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestApproxSavesNodes checks the point of the whole exercise: on a noisy
// multi-pass session with per-symbol attempts, the approximate mode delivers
// after the same number of symbols as the exact search while expanding
// fewer nodes, and reports non-zero NodesSaved.
func TestApproxSavesNodes(t *testing.T) {
	exact := runApproxSession(t, 1, 8, SearchExact)
	if !exact.Success {
		t.Fatal("exact session failed; pick a better operating point")
	}
	res := runApproxSession(t, 1, 8, SearchApprox)
	if !res.Success || res.ChannelUses != exact.ChannelUses {
		t.Fatalf("approx delivered=%v after %d symbols, exact after %d", res.Success, res.ChannelUses, exact.ChannelUses)
	}
	if res.NodesExpanded >= exact.NodesExpanded {
		t.Errorf("approx expanded %d nodes, exact %d — no savings", res.NodesExpanded, exact.NodesExpanded)
	}
	if res.NodesSaved == 0 {
		t.Error("approx NodesSaved = 0")
	}
}

// TestLeasedDecoderMatchesFreshAcrossSearch is the pool property: a pooled
// decoder that previously ran under any search mode must, after Release and
// re-Lease, decode exactly like a freshly constructed decoder under every
// search mode.
func TestLeasedDecoderMatchesFreshAcrossSearch(t *testing.T) {
	p := exactPinParams()
	pool := NewDecoderPool(2)
	for _, search := range searchModes {
		lease, err := pool.Lease(p, exactPinBeam)
		if err != nil {
			t.Fatal(err)
		}
		if got := lease.Dec.SearchMode(); got != SearchExact {
			t.Fatalf("leased decoder came back with search mode %v", got)
		}
		if err := lease.Dec.SetSearchMode(search); err != nil {
			t.Fatal(err)
		}

		fresh, err := NewBeamDecoder(p, exactPinBeam)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetSearchMode(search); err != nil {
			t.Fatal(err)
		}
		freshObs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}

		_, byPass := awgnPinStream(t, 2)
		for pass, row := range byPass {
			for s, y := range row {
				if err := lease.Obs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
					t.Fatal(err)
				}
				if err := freshObs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
					t.Fatal(err)
				}
			}
			got, err := lease.Dec.Decode(lease.Obs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Decode(freshObs)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || got.NodesExpanded != want.NodesExpanded ||
				got.NodesSaved != want.NodesSaved ||
				!EqualMessages(got.Message, want.Message, p.MessageBits) {
				t.Fatalf("search %v pass %d: leased diverged from fresh: %+v vs %+v",
					search, pass, got, want)
			}
		}
		lease.Release()
	}
}
