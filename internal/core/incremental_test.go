package core

import (
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// Tests for the incremental decode pipeline: interleaved Observe/Decode
// sequences must produce byte-identical messages and identical costs to a
// fresh from-scratch decode at every attempt point, across channel kinds and
// schedules, while expanding strictly fewer nodes in total.

// incrementalCase is one interleaving scenario.
type incrementalCase struct {
	name    string
	params  Params
	striped bool
	// attemptEvery is the number of symbols between decode attempts (1 =
	// every symbol); varying it exercises multi-observation refreshes.
	attemptEvery int
	passes       int
}

func incrementalCases() []incrementalCase {
	return []incrementalCase{
		{name: "sequential/every-symbol", params: Params{K: 4, C: 8, MessageBits: 24, Seed: 101}, attemptEvery: 1, passes: 6},
		{name: "sequential/every-3", params: Params{K: 4, C: 8, MessageBits: 24, Seed: 102}, attemptEvery: 3, passes: 6},
		{name: "striped/every-symbol", params: Params{K: 4, C: 8, MessageBits: 26, Seed: 103}, striped: true, attemptEvery: 1, passes: 6},
		{name: "striped/every-5", params: Params{K: 6, C: 8, MessageBits: 30, Seed: 104}, striped: true, attemptEvery: 5, passes: 8},
	}
}

// decodeAttempt runs one Decode of obs. With fromRoot set it first discards
// the decoder's workspaces, so the attempt runs from the root of the tree as
// it would on a decoder that has never seen obs: the from-scratch oracle the
// incremental decodes are checked against.
func decodeAttempt(dec *BeamDecoder, obs *Observations, fromRoot bool) (*DecodeResult, error) {
	if fromRoot {
		dec.invalidateWorkspace()
	}
	return dec.Decode(obs)
}

// decodeBitsAttempt is the binary-channel counterpart of decodeAttempt.
func decodeBitsAttempt(dec *BeamDecoder, obs *BitObservations, fromRoot bool) (*DecodeResult, error) {
	if fromRoot {
		dec.invalidateWorkspace()
	}
	return dec.DecodeBits(obs)
}

// smallCacheBound lowers maxCachedChildren below one parent's children block
// at every test geometry (2^k >= 16), so no level is retained: every block
// streams through the one-block buffer and nothing is ever refreshed.
const smallCacheBound = 8

// withCacheBound sets maxCachedChildren to n and returns the func that
// restores it.
func withCacheBound(n int) func() {
	old := maxCachedChildren
	maxCachedChildren = n
	return func() { maxCachedChildren = old }
}

// newModeDecoder returns a B = 8 decoder for p under the given search mode.
func newModeDecoder(t *testing.T, p Params, mode SearchMode) *BeamDecoder {
	t.Helper()
	dec, err := NewBeamDecoder(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetSearchMode(mode); err != nil {
		t.Fatal(err)
	}
	return dec
}

// forModes runs body as one subtest per search mode.
func forModes(t *testing.T, body func(t *testing.T, mode SearchMode)) {
	t.Helper()
	for _, mode := range searchModes {
		t.Run(mode.String(), func(t *testing.T) { body(t, mode) })
	}
}

// boundedDecoder is an incremental decoder that always decodes under a
// lowered maxCachedChildren.
type boundedDecoder struct {
	bound int
	dec   *BeamDecoder
}

// newBoundedDecoders returns one decoder per lowered bound: smallCacheBound,
// and 128 = B·2^4, which retains the observed levels of the k = 4 cases but
// streams their wider unobserved ones, so levels move between the two
// outputs from one attempt to the next.
func newBoundedDecoders(t *testing.T, p Params, mode SearchMode) []boundedDecoder {
	t.Helper()
	var bds []boundedDecoder
	for _, bound := range []int{smallCacheBound, 128} {
		bds = append(bds, boundedDecoder{bound: bound, dec: newModeDecoder(t, p, mode)})
	}
	return bds
}

// check decodes one attempt under the lowered bound and requires the
// from-scratch message and cost; under smallCacheBound nothing is retained,
// so nothing may be refreshed either.
func (b boundedDecoder) check(t *testing.T, p Params, attempt int, want *DecodeResult, decode func(*BeamDecoder) (*DecodeResult, error)) {
	t.Helper()
	restore := withCacheBound(b.bound)
	got, err := decode(b.dec)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost {
		t.Fatalf("attempt %d: decode under cache bound %d (%x, %v) differs from from-scratch (%x, %v)",
			attempt, b.bound, got.Message, got.Cost, want.Message, want.Cost)
	}
	if b.bound == smallCacheBound && got.NodesRefreshed != 0 {
		t.Fatalf("attempt %d: decode under cache bound %d refreshed %d nodes", attempt, b.bound, got.NodesRefreshed)
	}
}

// checkFromRoot requires a from-root attempt of a reused decoder to equal a
// fresh decoder's decode of the same observations: message, cost and every
// work counter.
func checkFromRoot(t *testing.T, p Params, attempt int, got, want *DecodeResult) {
	t.Helper()
	if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost ||
		got.NodesExpanded != want.NodesExpanded || got.NodesRefreshed != want.NodesRefreshed ||
		got.NodesSaved != want.NodesSaved {
		t.Fatalf("attempt %d: reused decoder from the root %+v differs from a fresh decoder %+v", attempt, *got, *want)
	}
}

func caseSchedule(t *testing.T, tc incrementalCase) Schedule {
	t.Helper()
	nseg := tc.params.NumSegments()
	var sched Schedule
	var err error
	if tc.striped {
		sched, err = NewStripedSchedule(nseg, 4)
	} else {
		sched, err = NewSequentialSchedule(nseg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestIncrementalMatchesFromScratchAWGN interleaves Observe and Decode over
// an AWGN channel under every search mode and checks every attempt against a
// fresh decoder's from-scratch decode: the incremental decoder, one decoder
// reused from the root on every attempt, and incremental decoders under
// lowered cache bounds (smallCacheBound retains no level).
func TestIncrementalMatchesFromScratchAWGN(t *testing.T) {
	for _, tc := range incrementalCases() {
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				msg := RandomMessage(rng.New(p.Seed^0xf00d), p.MessageBits)
				enc, err := NewEncoder(p, msg)
				if err != nil {
					t.Fatal(err)
				}
				ch, err := impair.NewAWGN(6, rng.New(p.Seed^0xbeef))
				if err != nil {
					t.Fatal(err)
				}

				inc := newModeDecoder(t, p, mode)
				root := newModeDecoder(t, p, mode)
				bounded := newBoundedDecoders(t, p, mode)
				obs, err := NewObservations(p.NumSegments())
				if err != nil {
					t.Fatal(err)
				}

				var incNodes, scratchNodes int
				attempts := 0
				total := tc.passes * p.NumSegments()
				for i := 0; i < total; i++ {
					pos := sched.Pos(i)
					if err := obs.Add(pos, ch.Corrupt(enc.SymbolAt(pos))); err != nil {
						t.Fatal(err)
					}
					if (i+1)%tc.attemptEvery != 0 {
						continue
					}
					got, err := inc.Decode(obs)
					if err != nil {
						t.Fatal(err)
					}
					// A fresh decoder with an empty workspace is the
					// from-scratch baseline for the exact same observations.
					want, err := newModeDecoder(t, p, mode).Decode(obs)
					if err != nil {
						t.Fatal(err)
					}
					if !EqualMessages(got.Message, want.Message, p.MessageBits) {
						t.Fatalf("attempt at %d symbols: incremental message %x differs from from-scratch %x",
							i+1, got.Message, want.Message)
					}
					if got.Cost != want.Cost {
						t.Fatalf("attempt at %d symbols: incremental cost %v differs from from-scratch %v",
							i+1, got.Cost, want.Cost)
					}
					fromRoot, err := decodeAttempt(root, obs, true)
					if err != nil {
						t.Fatal(err)
					}
					checkFromRoot(t, p, i+1, fromRoot, want)
					for _, b := range bounded {
						b.check(t, p, i+1, want, func(d *BeamDecoder) (*DecodeResult, error) { return d.Decode(obs) })
					}
					incNodes += got.NodesExpanded
					scratchNodes += want.NodesExpanded
					attempts++
				}
				if attempts < 2 {
					t.Fatal("scenario exercised fewer than two attempts")
				}
				if incNodes >= scratchNodes {
					t.Fatalf("incremental expanded %d nodes, from-scratch %d: no savings", incNodes, scratchNodes)
				}
			})
		})
	}
}

// TestIncrementalMatchesFromScratchBSC is the binary-channel counterpart. The
// BSC's Hamming metric produces integer costs, so cost ties are everywhere:
// the regime where only the strict (cost, parent, seg) order keeps every
// variant's selection in agreement.
func TestIncrementalMatchesFromScratchBSC(t *testing.T) {
	for _, tc := range incrementalCases() {
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				msg := RandomMessage(rng.New(p.Seed^0xabcd), p.MessageBits)
				enc, err := NewEncoder(p, msg)
				if err != nil {
					t.Fatal(err)
				}
				bsc, err := channel.NewBSC(0.08, rng.New(p.Seed^0x1234))
				if err != nil {
					t.Fatal(err)
				}

				inc := newModeDecoder(t, p, mode)
				root := newModeDecoder(t, p, mode)
				bounded := newBoundedDecoders(t, p, mode)
				obs, err := NewBitObservations(p.NumSegments())
				if err != nil {
					t.Fatal(err)
				}

				var incNodes, scratchNodes int
				total := (tc.passes + 6) * p.NumSegments() // bits carry less, give more passes
				for i := 0; i < total; i++ {
					pos := sched.Pos(i)
					if err := obs.Add(pos, bsc.CorruptBit(enc.CodedBit(pos.Spine, pos.Pass))); err != nil {
						t.Fatal(err)
					}
					if (i+1)%tc.attemptEvery != 0 {
						continue
					}
					got, err := inc.DecodeBits(obs)
					if err != nil {
						t.Fatal(err)
					}
					want, err := newModeDecoder(t, p, mode).DecodeBits(obs)
					if err != nil {
						t.Fatal(err)
					}
					if !EqualMessages(got.Message, want.Message, p.MessageBits) {
						t.Fatalf("attempt at %d bits: incremental message %x differs from from-scratch %x",
							i+1, got.Message, want.Message)
					}
					if got.Cost != want.Cost {
						t.Fatalf("attempt at %d bits: incremental cost %v differs from from-scratch %v",
							i+1, got.Cost, want.Cost)
					}
					fromRoot, err := decodeBitsAttempt(root, obs, true)
					if err != nil {
						t.Fatal(err)
					}
					checkFromRoot(t, p, i+1, fromRoot, want)
					for _, b := range bounded {
						b.check(t, p, i+1, want, func(d *BeamDecoder) (*DecodeResult, error) { return d.DecodeBits(obs) })
					}
					incNodes += got.NodesExpanded
					scratchNodes += want.NodesExpanded
				}
				if incNodes >= scratchNodes {
					t.Fatalf("incremental expanded %d nodes, from-scratch %d: no savings", incNodes, scratchNodes)
				}
			})
		})
	}
}

// TestIncrementalNodeSavings checks the headline claim of the incremental
// decoder end to end: full rateless transmissions at 0 dB (about eight
// passes per message) with the Figure 2 code (k = 8, c = 10, B = 16, a
// 14-bit ADC), a 24-bit message and the sequential schedule, attempted at
// every adaptive attempt point. At low SNR puncturing buys nothing, so the
// sequential schedule is the natural operating point; it also keeps the
// comparison about decoder work rather than the unpruned blowup a punctured
// first attempt causes either way. Every attempt of the incremental decoder
// must match a fresh decoder's message and cost, and across all attempts it
// must expand at most a third of the fresh decoders' nodes.
func TestIncrementalNodeSavings(t *testing.T) {
	p := Params{K: 8, C: 10, MessageBits: 24, Seed: DefaultSeed}
	nseg := p.NumSegments()
	sched, err := NewSequentialSchedule(nseg)
	if err != nil {
		t.Fatal(err)
	}
	const trials, beam = 6, 16
	maxSymbols := 400 * nseg
	minUses := (p.MessageBits + 2*p.C - 1) / (2 * p.C)
	var incNodes, freshNodes, delivered int
	for trial := uint64(1); trial <= trials; trial++ {
		msg := RandomMessage(rng.New(DefaultSeed^(0x9e3779b97f4a7c15*trial)), p.MessageBits)
		enc, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		radio, err := impair.NewQuantizedAWGN(0, 14, rng.New(DefaultSeed^(0xbb67ae8584caa73b*trial)))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewBeamDecoder(p, beam)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := NewObservations(nseg)
		if err != nil {
			t.Fatal(err)
		}
		for sent := 0; sent < maxSymbols; {
			stop, attempt := nextAttempt(AttemptAdaptive{}, sent, minUses, nseg, maxSymbols)
			for ; sent < stop; sent++ {
				pos := sched.Pos(sent)
				if err := obs.Add(pos, radio.Corrupt(enc.SymbolAt(pos))); err != nil {
					t.Fatal(err)
				}
			}
			if !attempt {
				break
			}
			got, err := inc.Decode(obs)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewBeamDecoder(p, beam)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Decode(obs)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost {
				t.Fatalf("trial %d at %d symbols: incremental (%x, %v) differs from fresh (%x, %v)",
					trial, sent, got.Message, got.Cost, want.Message, want.Cost)
			}
			incNodes += got.NodesExpanded
			freshNodes += want.NodesExpanded
			if EqualMessages(got.Message, msg, p.MessageBits) {
				delivered++
				break
			}
		}
	}
	if delivered == 0 || incNodes == 0 {
		t.Fatalf("vacuous run: %d/%d delivered, %d incremental nodes", delivered, trials, incNodes)
	}
	if 3*incNodes > freshNodes {
		t.Fatalf("incremental decoder expanded %d nodes, fresh decoders %d: %.2fx, want >= 3x",
			incNodes, freshNodes, float64(freshNodes)/float64(incNodes))
	}
	t.Logf("%.1fx: incremental expanded %d nodes, fresh decoders %d, %d/%d delivered",
		float64(freshNodes)/float64(incNodes), incNodes, freshNodes, delivered, trials)
}

// TestIncrementalUnchangedObservationsIsCacheHit checks that re-decoding an
// unchanged container does no tree work and returns the identical result.
func TestIncrementalUnchangedObservationsIsCacheHit(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(91, p.MessageBits)
	e, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observeNoiseless(t, e, 2)
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	first, err := dec.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if first.NodesExpanded == 0 {
		t.Fatal("first decode reported no work")
	}
	second, err := dec.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if second.NodesExpanded != 0 || second.NodesRefreshed != 0 {
		t.Fatalf("unchanged re-decode did work: %d expanded, %d refreshed",
			second.NodesExpanded, second.NodesRefreshed)
	}
	if !EqualMessages(first.Message, second.Message, p.MessageBits) || first.Cost != second.Cost {
		t.Fatal("cache-hit decode returned a different result")
	}
}

// TestIncrementalSurvivesReset checks that Reset marks everything dirty so a
// reused decoder re-runs from the root for a new message.
func TestIncrementalSurvivesReset(t *testing.T) {
	p := DefaultParams()
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := NewObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		msg := testMessage(uint64(200+round), p.MessageBits)
		e, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, e.Symbol(s, pass)); err != nil {
					t.Fatal(err)
				}
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Fatalf("round %d: reused decoder failed after Reset", round)
		}
	}
}

// TestIncrementalSwitchingContainersFallsBack checks that decoding a
// different observation container resets the workspace rather than reusing
// stale state.
func TestIncrementalSwitchingContainersFallsBack(t *testing.T) {
	p := Params{K: 4, C: 8, MessageBits: 16, Seed: 55}
	msgA := testMessage(1, p.MessageBits)
	msgB := testMessage(2, p.MessageBits)
	encA, _ := NewEncoder(p, msgA)
	encB, _ := NewEncoder(p, msgB)
	obsA := observeNoiseless(t, encA, 2)
	obsB := observeNoiseless(t, encB, 2)
	dec, err := NewBeamDecoder(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		outA, err := dec.Decode(obsA)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(outA.Message, msgA, p.MessageBits) {
			t.Fatal("decode of container A wrong after switching")
		}
		outB, err := dec.Decode(obsB)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(outB.Message, msgB, p.MessageBits) {
			t.Fatal("decode of container B wrong after switching")
		}
	}
}

// TestIncrementalTwoDecodersOneContainer checks that two decoders
// interleaving attempts on one observation container — a misuse of the
// single-consumer dirty tracking — still decode correctly: each decoder's
// workspace detects the other's MarkClean through the watermark and falls
// back to a full decode instead of trusting a dirty level that no longer
// covers its own unseen changes.
func TestIncrementalTwoDecodersOneContainer(t *testing.T) {
	p := Params{K: 4, C: 8, MessageBits: 24, Seed: 77}
	msg := RandomMessage(rng.New(7), p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := impair.NewAWGN(8, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewBeamDecoder(p, 8)
	b, _ := NewBeamDecoder(p, 8)
	obs, err := NewObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSequentialSchedule(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6*p.NumSegments(); i++ {
		pos := sched.Pos(i)
		if err := obs.Add(pos, ch.Corrupt(enc.SymbolAt(pos))); err != nil {
			t.Fatal(err)
		}
		// Alternate consumers; verify each against a fresh from-scratch
		// decode of the same container.
		dec := a
		if i%2 == 1 {
			dec = b
		}
		got, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewBeamDecoder(p, 8)
		want, err := fresh.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost {
			t.Fatalf("symbol %d: interleaved consumers diverged from from-scratch decode", i+1)
		}
	}
}

// TestIncrementalDirtyTracking checks the observation container's dirty
// bookkeeping directly.
func TestIncrementalDirtyTracking(t *testing.T) {
	obs, err := NewObservations(4)
	if err != nil {
		t.Fatal(err)
	}
	if obs.DirtyLevel() != 0 {
		t.Fatalf("fresh container dirty level = %d, want 0", obs.DirtyLevel())
	}
	obs.MarkClean()
	if obs.DirtyLevel() != 4 {
		t.Fatalf("clean container dirty level = %d, want 4", obs.DirtyLevel())
	}
	gen := obs.Generation()
	if err := obs.Add(SymbolPos{Spine: 2, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if obs.DirtyLevel() != 2 || obs.Generation() == gen {
		t.Fatalf("after add at spine 2: dirty=%d gen moved=%v", obs.DirtyLevel(), obs.Generation() != gen)
	}
	if err := obs.Add(SymbolPos{Spine: 1, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := obs.Add(SymbolPos{Spine: 3, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if obs.DirtyLevel() != 1 {
		t.Fatalf("dirty level = %d, want the minimum touched level 1", obs.DirtyLevel())
	}
	obs.Reset()
	if obs.DirtyLevel() != 0 {
		t.Fatal("Reset must mark everything dirty")
	}

	bits, err := NewBitObservations(3)
	if err != nil {
		t.Fatal(err)
	}
	bits.MarkClean()
	if err := bits.Add(SymbolPos{Spine: 1, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if bits.DirtyLevel() != 1 {
		t.Fatalf("bit dirty level = %d, want 1", bits.DirtyLevel())
	}
}
