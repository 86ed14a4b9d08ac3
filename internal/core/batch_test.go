package core

import (
	"reflect"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// TestPositionsIntoMatchesPos pins the batch position fill against per-index
// Pos calls for both built-in schedules, across batch boundaries that do not
// line up with pass boundaries.
func TestPositionsIntoMatchesPos(t *testing.T) {
	const nseg = 7
	seq, err := NewSequentialSchedule(nseg)
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewStripedSchedule(nseg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{seq, str} {
		for _, start := range []int{0, 1, nseg - 1, nseg, 2*nseg + 3} {
			for _, n := range []int{0, 1, nseg, 2*nseg + 5} {
				dst := make([]SymbolPos, n)
				PositionsInto(sched, start, dst)
				for i, got := range dst {
					if want := sched.Pos(start + i); got != want {
						t.Fatalf("%s: PositionsInto(start=%d)[%d] = %+v, want %+v",
							sched.Name(), start, i, got, want)
					}
				}
			}
		}
	}
}

// TestEncodeBatchMatchesSymbolAt pins the vectorized encoder fill against the
// scalar path, and its validation against malformed positions.
func TestEncodeBatchMatchesSymbolAt(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(17, p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewStripedSchedule(p.NumSegments(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	poss := make([]SymbolPos, n)
	PositionsInto(sched, 0, poss)
	syms := make([]complex128, n)
	if err := enc.EncodeBatch(syms, poss); err != nil {
		t.Fatal(err)
	}
	for i, pos := range poss {
		if want := enc.SymbolAt(pos); syms[i] != want {
			t.Fatalf("EncodeBatch[%d] = %v, want %v", i, syms[i], want)
		}
	}
	bits := make([]byte, n)
	if err := enc.CodedBitBatch(bits, poss); err != nil {
		t.Fatal(err)
	}
	for i, pos := range poss {
		if want := enc.CodedBit(pos.Spine, pos.Pass); bits[i] != want {
			t.Fatalf("CodedBitBatch[%d] = %d, want %d", i, bits[i], want)
		}
	}

	if err := enc.EncodeBatch(syms[:1], poss); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := enc.EncodeBatch(syms[:1], []SymbolPos{{Spine: p.NumSegments(), Pass: 0}}); err == nil {
		t.Error("out-of-range spine accepted")
	}
	if err := enc.CodedBitBatch(bits[:1], []SymbolPos{{Spine: 0, Pass: -1}}); err == nil {
		t.Error("negative pass accepted")
	}
}

// TestAddBatchMatchesAdd is the scalar/batch equivalence pin of the AWGN
// decode path: folding one batch of observations with AddBatch and decoding
// once must yield bit-identical message, cost and node accounting to feeding
// the same symbols through per-symbol Add calls.
func TestAddBatchMatchesAdd(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(21, p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewStripedSchedule(p.NumSegments(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := impair.NewAWGN(8, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * p.NumSegments()
	poss := make([]SymbolPos, n)
	PositionsInto(sched, 0, poss)
	tx := make([]complex128, n)
	if err := enc.EncodeBatch(tx, poss); err != nil {
		t.Fatal(err)
	}
	rx := make([]complex128, n)
	ch.CorruptBlock(rx, tx)

	scalarObs, _ := NewObservations(p.NumSegments())
	for i, pos := range poss {
		if err := scalarObs.Add(pos, rx[i]); err != nil {
			t.Fatal(err)
		}
	}
	batchObs, _ := NewObservations(p.NumSegments())
	if err := batchObs.AddBatch(poss, rx); err != nil {
		t.Fatal(err)
	}
	if scalarObs.Count() != batchObs.Count() {
		t.Fatalf("containers disagree: count %d/%d", scalarObs.Count(), batchObs.Count())
	}

	scalarDec, _ := NewBeamDecoder(p, 16)
	batchDec, _ := NewBeamDecoder(p, 16)
	a, err := scalarDec.Decode(scalarObs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchDec.Decode(batchObs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(a.Message, b.Message, p.MessageBits) {
		t.Fatal("scalar and batch observation paths decoded different messages")
	}
	if a.Cost != b.Cost {
		t.Fatalf("costs diverged: %v vs %v", a.Cost, b.Cost)
	}
	if a.NodesExpanded != b.NodesExpanded {
		t.Fatalf("node accounting diverged: %d vs %d", a.NodesExpanded, b.NodesExpanded)
	}
}

// TestBitAddBatchMatchesAdd is the BSC counterpart of TestAddBatchMatchesAdd.
func TestBitAddBatchMatchesAdd(t *testing.T) {
	p := Params{K: 4, C: 8, MessageBits: 16, Seed: DefaultSeed}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	msg := testMessage(23, p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSequentialSchedule(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	bsc, err := channel.NewBSC(0.05, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	n := 12 * p.NumSegments()
	poss := make([]SymbolPos, n)
	PositionsInto(sched, 0, poss)
	tx := make([]byte, n)
	if err := enc.CodedBitBatch(tx, poss); err != nil {
		t.Fatal(err)
	}
	rx := make([]byte, n)
	bsc.CorruptBits(rx, tx)

	scalarObs, _ := NewBitObservations(p.NumSegments())
	for i, pos := range poss {
		if err := scalarObs.Add(pos, rx[i]); err != nil {
			t.Fatal(err)
		}
	}
	batchObs, _ := NewBitObservations(p.NumSegments())
	if err := batchObs.AddBatch(poss, rx); err != nil {
		t.Fatal(err)
	}

	scalarDec, _ := NewBeamDecoder(p, 16)
	batchDec, _ := NewBeamDecoder(p, 16)
	a, err := scalarDec.DecodeBits(scalarObs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchDec.DecodeBits(batchObs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(a.Message, b.Message, p.MessageBits) || a.Cost != b.Cost ||
		a.NodesExpanded != b.NodesExpanded {
		t.Fatalf("BSC scalar/batch paths diverged: cost %v/%v, nodes %d/%d",
			a.Cost, b.Cost, a.NodesExpanded, b.NodesExpanded)
	}
	if !EqualMessages(a.Message, msg, p.MessageBits) {
		t.Fatal("BSC decode at p=0.05 with 12 passes failed")
	}
}

// TestAddBatchValidation pins the all-or-nothing contract: a bad position (or
// a length mismatch) must leave the container untouched, an empty batch
// records nothing, and a good batch records every position.
func TestAddBatchValidation(t *testing.T) {
	obs, err := NewObservations(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Add(SymbolPos{Spine: 2, Pass: 0}, 1+1i); err != nil {
		t.Fatal(err)
	}
	// perSpine snapshots how many observations each spine value holds.
	perSpine := func() [4]int {
		var n [4]int
		for i := range n {
			n[i] = obs.PerSpine(i)
		}
		return n
	}
	before := perSpine()

	bad := []SymbolPos{{Spine: 0, Pass: 0}, {Spine: 4, Pass: 0}}
	if err := obs.AddBatch(bad, make([]complex128, 2)); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if err := obs.AddBatch(bad[:1], make([]complex128, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := obs.AddBatch(nil, nil); err != nil {
		t.Fatal(err)
	}
	if obs.Count() != 1 || perSpine() != before {
		t.Fatalf("failed or empty batch mutated the container: count %d, per spine %v → %v",
			obs.Count(), before, perSpine())
	}
	poss := []SymbolPos{{Spine: 3, Pass: 0}, {Spine: 1, Pass: 0}}
	if err := obs.AddBatch(poss, make([]complex128, 2)); err != nil {
		t.Fatal(err)
	}
	if want := [4]int{0, 1, 1, 1}; obs.Count() != 3 || perSpine() != want {
		t.Fatalf("after one batch: count %d, per spine %v, want 3 and %v", obs.Count(), perSpine(), want)
	}

	bobs, err := NewBitObservations(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bobs.AddBatch([]SymbolPos{{Spine: 0, Pass: 0}}, []byte{2}); err == nil {
		t.Fatal("non-bit value accepted")
	}
	if bobs.Count() != 0 || bobs.PerSpine(0) != 0 {
		t.Fatal("failed bit batch mutated the container")
	}
}

// TestRunChannelSessionMatchesScalarReference pins the batched transmission
// loop against a from-first-principles reimplementation of the historical
// per-symbol session: same attempt points, same noise stream, bit-identical
// results — on AWGN (RunChannelSession) and on the BSC
// (RunBitChannelSession), each with the adaptive policy and with a learned
// DecodeHistory, which must also record the same decode points on both
// sides.
func TestRunChannelSessionMatchesScalarReference(t *testing.T) {
	p := DefaultParams()
	sched, err := NewStripedSchedule(p.NumSegments(), 8)
	if err != nil {
		t.Fatal(err)
	}
	bp := Params{K: 4, C: 10, MessageBits: 24, Seed: 79}
	bitSched, err := NewStripedSchedule(bp.NumSegments(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// same reports whether a session transcript equals the reference's.
	same := func(got, want *Result, messageBits int) bool {
		return got.Success == want.Success && got.ChannelUses == want.ChannelUses &&
			got.Attempts == want.Attempts && got.NodesExpanded == want.NodesExpanded &&
			EqualMessages(got.Decoded, want.Decoded, messageBits)
	}
	// policies returns the session's policy and the reference's: the default
	// policy twice, or two copies of a history primed with four decode points
	// (at nseg segments) whose threshold holds a message's first attempt at
	// `hold` channel uses, above the noiseless bound and off the pass grid.
	policies := func(t *testing.T, learned bool, points []int, nseg, minUses, hold int) (AttemptPolicy, AttemptPolicy) {
		if !learned {
			return AttemptAdaptive{}, AttemptAdaptive{}
		}
		var h DecodeHistory
		for _, uses := range points {
			h.Decoded(uses, nseg, false)
		}
		probe := h // FirstAttempt counts a message, so ask a copy
		if got, held := probe.FirstAttempt(minUses, nseg); got != hold || !held || hold%nseg == 0 {
			t.Fatalf("primed history holds at %d channel uses (held %v), want held at %d, off the pass grid", got, held, hold)
		}
		ref := h
		return &h, &ref
	}
	for _, tc := range []struct {
		name    string
		learned bool
	}{
		{"adaptive", false},
		{"history", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("awgn", func(t *testing.T) {
				// 2c coded bits per symbol.
				minUses := (p.MessageBits + 2*p.C - 1) / (2 * p.C)
				policy, refPolicy := policies(t, tc.learned, []int{5, 7, 10, 11}, p.NumSegments(), minUses, 7)
				for trial := 0; trial < 4; trial++ {
					msg := RandomMessage(rng.New(uint64(trial)*31+5), p.MessageBits)
					cfg := SessionConfig{
						Params:     p,
						BeamWidth:  16,
						Schedule:   sched,
						Attempts:   policy,
						MaxSymbols: 40 * p.NumSegments(),
					}
					ch, err := impair.NewAWGN(6, rng.New(uint64(trial)*37+7))
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunChannelSession(cfg, msg, ch, GenieVerifier(msg, p.MessageBits))
					if err != nil {
						t.Fatal(err)
					}
					refCh, err := impair.NewAWGN(6, rng.New(uint64(trial)*37+7))
					if err != nil {
						t.Fatal(err)
					}
					obs, err := NewObservations(p.NumSegments())
					if err != nil {
						t.Fatal(err)
					}
					refCfg := cfg
					refCfg.Attempts = refPolicy
					want, err := scalarReferenceSession(refCfg, msg, minUses,
						func(enc *Encoder, pos SymbolPos) error {
							return obs.Add(pos, refCh.Corrupt(enc.SymbolAt(pos)))
						},
						func(dec *BeamDecoder) (*DecodeResult, error) { return dec.Decode(obs) },
						GenieVerifier(msg, p.MessageBits))
					if err != nil {
						t.Fatal(err)
					}
					if !same(got, want, p.MessageBits) || !reflect.DeepEqual(policy, refPolicy) {
						t.Fatalf("trial %d: batch session diverged from the scalar reference:\n got %+v %+v\nwant %+v %+v",
							trial, got, policy, want, refPolicy)
					}
				}
			})
			t.Run("bsc", func(t *testing.T) {
				// At most one message bit per coded bit.
				policy, refPolicy := policies(t, tc.learned, []int{27, 31, 45, 50}, bp.NumSegments(), bp.MessageBits, 31)
				for trial := 0; trial < 4; trial++ {
					msg := RandomMessage(rng.New(uint64(trial)*41+11), bp.MessageBits)
					cfg := SessionConfig{
						Params:     bp,
						BeamWidth:  16,
						Schedule:   bitSched,
						Attempts:   policy,
						MaxSymbols: 40 * bp.NumSegments(),
					}
					ch, err := channel.NewBSC(0.05, rng.New(uint64(trial)*43+13))
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunBitChannelSession(cfg, msg, ch, GenieVerifier(msg, bp.MessageBits))
					if err != nil {
						t.Fatal(err)
					}
					refCh, err := channel.NewBSC(0.05, rng.New(uint64(trial)*43+13))
					if err != nil {
						t.Fatal(err)
					}
					obs, err := NewBitObservations(bp.NumSegments())
					if err != nil {
						t.Fatal(err)
					}
					refCfg := cfg
					refCfg.Attempts = refPolicy
					want, err := scalarReferenceSession(refCfg, msg, bp.MessageBits,
						func(enc *Encoder, pos SymbolPos) error {
							return obs.Add(pos, refCh.CorruptBit(enc.CodedBit(pos.Spine, pos.Pass)))
						},
						func(dec *BeamDecoder) (*DecodeResult, error) { return dec.DecodeBits(obs) },
						GenieVerifier(msg, bp.MessageBits))
					if err != nil {
						t.Fatal(err)
					}
					if !same(got, want, bp.MessageBits) || !reflect.DeepEqual(policy, refPolicy) {
						t.Fatalf("trial %d: batch bit session diverged from the scalar reference:\n got %+v %+v\nwant %+v %+v",
							trial, got, policy, want, refPolicy)
					}
				}
			})
		})
	}
}

// scalarReferenceSession is a line-for-line reimplementation of the
// pre-batch per-symbol session loop, kept in the tests as the equivalence
// reference for the batched transmission path. observe sends one symbol (or
// coded bit) through the channel and records it; decode runs one attempt on
// what was recorded; minUses is the noiseless bound, from which the policy
// places the first attempt.
func scalarReferenceSession(cfg SessionConfig, message []byte, minUses int, observe func(enc *Encoder, pos SymbolPos) error,
	decode func(dec *BeamDecoder) (*DecodeResult, error), verify Verifier) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	enc, err := NewEncoder(cfg.Params, message)
	if err != nil {
		return nil, err
	}
	dec, err := NewBeamDecoder(cfg.Params, cfg.BeamWidth)
	if err != nil {
		return nil, err
	}
	if err := dec.SetSearchMode(cfg.Search); err != nil {
		return nil, err
	}
	res := &Result{}
	nseg := cfg.Params.NumSegments()
	first, held := cfg.Attempts.FirstAttempt(minUses, nseg)
	first = min(first, cfg.MaxSymbols)
	for i := 0; i < cfg.MaxSymbols; i++ {
		if err := observe(enc, cfg.Schedule.Pos(i)); err != nil {
			return nil, err
		}
		received := i + 1
		if received < first || received > first && !cfg.Attempts.ShouldAttempt(received, nseg) {
			continue
		}
		out, err := decode(dec)
		if err != nil {
			return nil, err
		}
		res.Attempts++
		res.NodesExpanded += int64(out.NodesExpanded)
		res.Decoded = out.Message
		if verify(out.Message) {
			cfg.Attempts.Decoded(received, nseg, held)
			res.Success = true
			res.ChannelUses = received
			return res, nil
		}
	}
	res.ChannelUses = cfg.MaxSymbols
	return res, nil
}
