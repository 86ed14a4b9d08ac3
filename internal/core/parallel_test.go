package core

import (
	"runtime"
	"testing"
	"testing/quick"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// Tests for the parallel decode engine. The contract under test is strict:
// a decode sharded across any number of worker goroutines must produce a
// DecodeResult that is byte-identical to the serial decode — same message,
// same cost, same NodesExpanded/NodesRefreshed/NodesSaved accounting —
// resuming incrementally, decoding from the root or retaining no level, over
// both channel kinds and both search modes.

// forceParallel lowers the sharding thresholds so that even the small trees
// used by tests exercise the multi-worker paths, restoring them afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	oldMin, oldShard := minParallelChildren, minShardChildren
	minParallelChildren, minShardChildren = 1, 1
	t.Cleanup(func() { minParallelChildren, minShardChildren = oldMin, oldShard })
}

// parallelisms returns the worker counts the equivalence tests sweep,
// including GOMAXPROCS as required by the acceptance criteria.
func parallelisms() []int {
	ps := []int{1, 3}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 3 {
		ps = append(ps, g)
	}
	return ps
}

// Variant modes: an incremental decoder, the same decoder decoding every
// attempt from the root, and an incremental decoder under smallCacheBound,
// which retains no level.
const (
	variantIncremental = "incremental"
	variantFromRoot    = "from-root"
	variantUncached    = "uncached"
)

// decodeVariant is one (parallelism, mode) decoder configuration fed the
// same symbol stream as the serial reference; every variant of a set shares
// one search mode.
type decodeVariant struct {
	workers int
	mode    string
	dec     *BeamDecoder
	last    *DecodeResult
}

func newVariants(t *testing.T, p Params, beam int, mode SearchMode) []*decodeVariant {
	t.Helper()
	var vs []*decodeVariant
	for _, vm := range []string{variantIncremental, variantFromRoot, variantUncached} {
		for _, w := range parallelisms() {
			dec, err := NewBeamDecoder(p, beam)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.SetSearchMode(mode); err != nil {
				t.Fatal(err)
			}
			dec.SetParallelism(w)
			t.Cleanup(dec.Close)
			vs = append(vs, &decodeVariant{workers: w, mode: vm, dec: dec})
		}
	}
	return vs
}

// decode runs one attempt of v's decoder on obs under v's mode.
func (v *decodeVariant) decode(obs *Observations) (err error) {
	if v.mode == variantUncached {
		defer withCacheBound(smallCacheBound)()
	}
	v.last, err = decodeAttempt(v.dec, obs, v.mode == variantFromRoot)
	return err
}

// decodeBits is the binary-channel counterpart of decode.
func (v *decodeVariant) decodeBits(obs *BitObservations) (err error) {
	if v.mode == variantUncached {
		defer withCacheBound(smallCacheBound)()
	}
	v.last, err = decodeBitsAttempt(v.dec, obs, v.mode == variantFromRoot)
	return err
}

// checkVariants asserts that every variant decoded the reference's message
// and cost, that variants of one mode agree on the work counters at every
// worker count, and that the uncached variants refreshed nothing.
func checkVariants(t *testing.T, p Params, vs []*decodeVariant, attempt int) {
	t.Helper()
	ref := vs[0].last
	for _, v := range vs[1:] {
		got := v.last
		if !EqualMessages(got.Message, ref.Message, p.MessageBits) || got.Cost != ref.Cost {
			t.Fatalf("attempt %d: workers=%d %s decoded (%x, %v), reference (%x, %v)",
				attempt, v.workers, v.mode, got.Message, got.Cost, ref.Message, ref.Cost)
		}
		if v.mode == variantUncached && got.NodesRefreshed != 0 {
			t.Fatalf("attempt %d: workers=%d uncached decode refreshed %d nodes", attempt, v.workers, got.NodesRefreshed)
		}
	}
	for i, v := range vs {
		serial := vs[i-i%len(parallelisms())].last // first variant of v's mode
		got := v.last
		if got.NodesExpanded != serial.NodesExpanded || got.NodesRefreshed != serial.NodesRefreshed ||
			got.NodesSaved != serial.NodesSaved {
			t.Fatalf("attempt %d: %s workers=%d accounting (%d expanded, %d refreshed, %d saved) differs from serial (%d, %d, %d)",
				attempt, v.mode, v.workers, got.NodesExpanded, got.NodesRefreshed, got.NodesSaved,
				serial.NodesExpanded, serial.NodesRefreshed, serial.NodesSaved)
		}
	}
}

// forModes runs body as one subtest per search mode.
func forModes(t *testing.T, body func(t *testing.T, mode SearchMode)) {
	t.Helper()
	for _, mode := range searchModes {
		t.Run(mode.String(), func(t *testing.T) { body(t, mode) })
	}
}

// TestParallelMatchesSerialAWGN interleaves Observe and Decode over an AWGN
// channel for every (parallelism, variant mode) combination, under every
// search mode, and checks each attempt against the serial
// incremental reference.
func TestParallelMatchesSerialAWGN(t *testing.T) {
	forceParallel(t)
	for _, tc := range incrementalCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				msg := RandomMessage(rng.New(p.Seed^0x5eed), p.MessageBits)
				enc, err := NewEncoder(p, msg)
				if err != nil {
					t.Fatal(err)
				}
				vs := newVariants(t, p, 8, mode)
				type stream struct {
					ch  *impair.Pipeline
					obs *Observations
				}
				streams := make([]*stream, len(vs))
				for i := range vs {
					// Each variant replays an identical noisy symbol stream from
					// its own channel instance and observation container.
					ch, err := impair.NewAWGN(6, rng.New(p.Seed^0xbeef))
					if err != nil {
						t.Fatal(err)
					}
					obs, err := NewObservations(p.NumSegments())
					if err != nil {
						t.Fatal(err)
					}
					streams[i] = &stream{ch: ch, obs: obs}
				}
				total := tc.passes * p.NumSegments()
				for i := 0; i < total; i++ {
					pos := sched.Pos(i)
					clean := enc.SymbolAt(pos)
					for s := range streams {
						if err := streams[s].obs.Add(pos, streams[s].ch.Corrupt(clean)); err != nil {
							t.Fatal(err)
						}
					}
					if (i+1)%tc.attemptEvery != 0 {
						continue
					}
					for v := range vs {
						if err := vs[v].decode(streams[v].obs); err != nil {
							t.Fatal(err)
						}
					}
					checkVariants(t, p, vs, i+1)
				}
			})
		})
	}
}

// TestParallelMatchesSerialBSC is the binary-channel counterpart.
func TestParallelMatchesSerialBSC(t *testing.T) {
	forceParallel(t)
	for _, tc := range incrementalCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				msg := RandomMessage(rng.New(p.Seed^0xcafe), p.MessageBits)
				enc, err := NewEncoder(p, msg)
				if err != nil {
					t.Fatal(err)
				}
				vs := newVariants(t, p, 8, mode)
				type stream struct {
					bsc *channel.BSC
					obs *BitObservations
				}
				streams := make([]*stream, len(vs))
				for i := range vs {
					bsc, err := channel.NewBSC(0.08, rng.New(p.Seed^0x7777))
					if err != nil {
						t.Fatal(err)
					}
					obs, err := NewBitObservations(p.NumSegments())
					if err != nil {
						t.Fatal(err)
					}
					streams[i] = &stream{bsc: bsc, obs: obs}
				}
				// The BSC's Hamming metric produces constant integer costs, so
				// cost ties are everywhere — exactly the regime where the total
				// order has to keep shards in agreement.
				total := (tc.passes + 6) * p.NumSegments()
				for i := 0; i < total; i++ {
					pos := sched.Pos(i)
					clean := enc.CodedBit(pos.Spine, pos.Pass)
					for s := range streams {
						if err := streams[s].obs.Add(pos, streams[s].bsc.CorruptBit(clean)); err != nil {
							t.Fatal(err)
						}
					}
					if (i+1)%tc.attemptEvery != 0 {
						continue
					}
					for v := range vs {
						if err := vs[v].decodeBits(streams[v].obs); err != nil {
							t.Fatal(err)
						}
					}
					checkVariants(t, p, vs, i+1)
				}
			})
		})
	}
}

// TestParallelDecodeProperty is the quick-check form of the equivalence
// claim: for arbitrary parameters, messages, observation counts and search
// modes, a 3-worker decode equals the serial decode bit for bit.
func TestParallelDecodeProperty(t *testing.T) {
	forceParallel(t)
	prop := func(seed uint64, kRaw, bitsRaw, obsCount uint8, approx bool) bool {
		k := int(kRaw%6) + 2
		bits := int(bitsRaw%48) + 8
		p := Params{K: k, C: 8, MessageBits: bits, Seed: seed | 1}
		msg := RandomMessage(rng.New(seed^0xabc), bits)
		enc, err := NewEncoder(p, msg)
		if err != nil {
			return false
		}
		mode := SearchExact
		if approx {
			mode = SearchApprox
		}
		newDec := func(workers int) *BeamDecoder {
			dec, err := NewBeamDecoder(p, 8)
			if err != nil || dec.SetSearchMode(mode) != nil {
				return nil
			}
			dec.SetParallelism(workers)
			return dec
		}
		serial, sharded := newDec(1), newDec(3)
		if serial == nil || sharded == nil {
			return false
		}
		defer sharded.Close()
		mkObs := func() *Observations {
			obs, _ := NewObservations(p.NumSegments())
			ch, _ := impair.NewAWGN(4, rng.New(seed^0x99))
			sched, _ := NewSequentialSchedule(p.NumSegments())
			// Fewer symbols than spine values leaves levels unobserved, where
			// the approximate mode's cap applies.
			n := int(obsCount%64) + p.NumSegments()/2
			for i := 0; i < n; i++ {
				pos := sched.Pos(i)
				if obs.Add(pos, ch.Corrupt(enc.SymbolAt(pos))) != nil {
					return nil
				}
			}
			return obs
		}
		a, b := mkObs(), mkObs()
		if a == nil || b == nil {
			return false
		}
		outA, err := serial.Decode(a)
		if err != nil {
			return false
		}
		outB, err := sharded.Decode(b)
		if err != nil {
			return false
		}
		return EqualMessages(outA.Message, outB.Message, bits) &&
			outA.Cost == outB.Cost &&
			outA.NodesExpanded == outB.NodesExpanded &&
			outA.NodesRefreshed == outB.NodesRefreshed &&
			outA.NodesSaved == outB.NodesSaved
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSetParallelismMidStream switches worker counts between attempts on one
// observation container; the decode must stay bit-identical to an untouched
// serial decoder throughout, including the incremental workspace reuse.
func TestSetParallelismMidStream(t *testing.T) {
	forceParallel(t)
	p := Params{K: 4, C: 8, MessageBits: 24, Seed: 909}
	msg := RandomMessage(rng.New(11), p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSequentialSchedule(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (*BeamDecoder, *Observations, *impair.Pipeline) {
		dec, err := NewBeamDecoder(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		ch, err := impair.NewAWGN(6, rng.New(313))
		if err != nil {
			t.Fatal(err)
		}
		return dec, obs, ch
	}
	refDec, refObs, refCh := mk()
	refDec.SetParallelism(1)
	dec, obs, ch := mk()
	defer dec.Close()
	workers := []int{1, 2, 4, 3, 1, 5}
	for i := 0; i < 5*p.NumSegments(); i++ {
		pos := sched.Pos(i)
		clean := enc.SymbolAt(pos)
		if err := refObs.Add(pos, refCh.Corrupt(clean)); err != nil {
			t.Fatal(err)
		}
		if err := obs.Add(pos, ch.Corrupt(clean)); err != nil {
			t.Fatal(err)
		}
		dec.SetParallelism(workers[i%len(workers)])
		want, err := refDec.Decode(refObs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost ||
			got.NodesExpanded != want.NodesExpanded || got.NodesRefreshed != want.NodesRefreshed {
			t.Fatalf("symbol %d: decode diverged after switching to %d workers", i+1, workers[i%len(workers)])
		}
	}
}

// TestDecoderCloseIsReusable checks that Close only releases the helper
// goroutines: a closed decoder must keep decoding correctly (lazily
// recreating its pool) and Close must be idempotent.
func TestDecoderCloseIsReusable(t *testing.T) {
	forceParallel(t)
	p := Params{K: 4, C: 8, MessageBits: 16, Seed: 77}
	msg := testMessage(3, p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observeNoiseless(t, enc, 2)
	dec, err := NewBeamDecoder(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec.SetParallelism(4)
	for round := 0; round < 3; round++ {
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Fatalf("round %d: wrong decode after Close", round)
		}
		dec.Close()
		dec.Close() // idempotent
		obs.Reset()
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < enc.NumSegments(); s++ {
				if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, enc.Symbol(s, pass)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestParallelismAccessorsAndDefaults pins the configuration surface: the
// default is GOMAXPROCS, zero resets to the default, and explicit values are
// reported back.
func TestParallelismAccessorsAndDefaults(t *testing.T) {
	p := DefaultParams()
	dec, err := NewBeamDecoder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	dec.SetParallelism(7)
	if got := dec.Parallelism(); got != 7 {
		t.Fatalf("Parallelism() = %d after SetParallelism(7)", got)
	}
	dec.SetParallelism(0)
	if got := dec.Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetParallelism(0) should restore the GOMAXPROCS default, got %d", got)
	}
}
