package core

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// observeNoiseless feeds the first `passes` full passes of the encoder output
// into a fresh observation container with no channel noise.
func observeNoiseless(t *testing.T, e *Encoder, passes int) *Observations {
	t.Helper()
	obs, err := NewObservations(e.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < passes; pass++ {
		for s := 0; s < e.NumSegments(); s++ {
			if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, e.Symbol(s, pass)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return obs
}

func TestObservationsAccounting(t *testing.T) {
	obs, err := NewObservations(4)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Count() != 0 || obs.NumSegments() != 4 {
		t.Fatal("fresh observations not empty")
	}
	if err := obs.Add(SymbolPos{Spine: 2, Pass: 0}, 1+2i); err != nil {
		t.Fatal(err)
	}
	if err := obs.Add(SymbolPos{Spine: 2, Pass: 1}, 3i); err != nil {
		t.Fatal(err)
	}
	if obs.Count() != 2 || obs.PerSpine(2) != 2 || obs.PerSpine(0) != 0 {
		t.Fatal("observation counts wrong")
	}
	if obs.PerSpine(-1) != 0 || obs.PerSpine(9) != 0 {
		t.Fatal("out-of-range PerSpine should be 0")
	}
	if err := obs.Add(SymbolPos{Spine: 4, Pass: 0}, 0); err == nil {
		t.Fatal("out-of-range spine accepted")
	}
	if err := obs.Add(SymbolPos{Spine: 0, Pass: -1}, 0); err == nil {
		t.Fatal("negative pass accepted")
	}
	obs.Reset()
	if obs.Count() != 0 || obs.PerSpine(2) != 0 {
		t.Fatal("Reset did not clear observations")
	}
	if _, err := NewObservations(0); err == nil {
		t.Fatal("zero segments accepted")
	}
}

func TestBitObservationsAccounting(t *testing.T) {
	obs, err := NewBitObservations(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Add(SymbolPos{Spine: 1, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := obs.Add(SymbolPos{Spine: 1, Pass: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if obs.Count() != 2 || obs.PerSpine(1) != 2 || obs.NumSegments() != 3 {
		t.Fatal("bit observation counts wrong")
	}
	if err := obs.Add(SymbolPos{Spine: 0, Pass: 0}, 2); err == nil {
		t.Fatal("non-bit value accepted")
	}
	if err := obs.Add(SymbolPos{Spine: 5, Pass: 0}, 1); err == nil {
		t.Fatal("out-of-range spine accepted")
	}
	if obs.Count() != 2 || obs.PerSpine(0) != 0 {
		t.Fatal("a rejected Add mutated the container")
	}
	obs.Reset()
	if obs.Count() != 0 {
		t.Fatal("Reset did not clear bit observations")
	}
	if _, err := NewBitObservations(0); err == nil {
		t.Fatal("zero segments accepted")
	}
}

func TestBeamDecoderNoiselessRoundTrip(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(11, p.MessageBits)
	e, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	obs := observeNoiseless(t, e, 2)
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(out.Message, msg, p.MessageBits) {
		t.Fatalf("noiseless decode failed: got %x want %x", out.Message, msg)
	}
	if out.Cost > 1e-18 {
		t.Fatalf("noiseless decode has non-zero cost %v", out.Cost)
	}
	if out.NodesExpanded <= 0 {
		t.Fatal("NodesExpanded not reported")
	}
}

func TestBeamDecoderManyMessagesNoiseless(t *testing.T) {
	// A batch of random messages decoded from two noiseless passes must all
	// come back exactly; B=16 leaves ample headroom against symbol collisions.
	p := Params{K: 6, C: 8, MessageBits: 30, Seed: 99}
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(123)
	for i := 0; i < 30; i++ {
		msg := RandomMessage(src, p.MessageBits)
		e, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dec.Decode(observeNoiseless(t, e, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Fatalf("message %d decoded incorrectly", i)
		}
	}
}

func TestBeamDecoderNonMultipleMessageLength(t *testing.T) {
	// Message length not divisible by K exercises the short final segment.
	p := Params{K: 8, C: 10, MessageBits: 21, Seed: 5}
	msg := testMessage(12, p.MessageBits)
	e, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewBeamDecoder(p, 16)
	out, err := dec.Decode(observeNoiseless(t, e, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(out.Message, msg, p.MessageBits) {
		t.Fatalf("decode failed for non-multiple message length")
	}
}

func TestBeamDecoderWithAWGN(t *testing.T) {
	// At 15 dB with 3 passes (rate 8/3 vs capacity ~5) nearly every message
	// decodes. The occasional residual error lives in the final segment — the
	// finite-blocklength tail effect §4 of the paper describes — and is what
	// the rateless loop absorbs by sending more symbols, so we require at
	// least 18 of 20 fixed-seed messages to decode exactly.
	p := DefaultParams()
	src := rng.New(7)
	ch, err := impair.NewAWGN(15, src)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewBeamDecoder(p, 16)
	msgSrc := rng.New(8)
	correct := 0
	for i := 0; i < 20; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		e, _ := NewEncoder(p, msg)
		obs, _ := NewObservations(e.NumSegments())
		for pass := 0; pass < 3; pass++ {
			for s := 0; s < e.NumSegments(); s++ {
				obs.Add(SymbolPos{Spine: s, Pass: pass}, ch.Corrupt(e.Symbol(s, pass)))
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if EqualMessages(out.Message, msg, p.MessageBits) {
			correct++
		}
	}
	if correct < 18 {
		t.Fatalf("only %d/20 messages decoded at 15 dB with 3 passes", correct)
	}
}

func TestMLDecoderMatchesExhaustiveOptimum(t *testing.T) {
	// For a small code the ML decoder must return a message whose cost is no
	// larger than the cost of the true message and of any beam decode.
	p := Params{K: 4, C: 6, MessageBits: 12, Seed: 3}
	msg := testMessage(13, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	src := rng.New(14)
	ch, _ := impair.NewAWGN(5, src) // noisy enough that errors are plausible
	obs, _ := NewObservations(e.NumSegments())
	for s := 0; s < e.NumSegments(); s++ {
		obs.Add(SymbolPos{Spine: s, Pass: 0}, ch.Corrupt(e.Symbol(s, 0)))
	}

	ml, err := NewMLDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	mlOut, err := ml.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}

	// Exhaustive search over all 2^12 messages as an independent oracle.
	bestCost := -1.0
	var bestMsg []byte
	coster := &awgnCoster{d: ml, obs: obs}
	for m := 0; m < 1<<12; m++ {
		cand := []byte{byte(m), byte(m >> 8)}
		cand[1] &= 0x0f
		enc, _ := NewEncoder(p, cand)
		var cost float64
		for s, sv := range enc.Spine() {
			coster.prepareLevel(s)
			cost += coster.cost(sv, s)
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			bestMsg = cand
		}
	}
	if mlOut.Cost > bestCost+1e-9 {
		t.Fatalf("ML decoder cost %v exceeds exhaustive optimum %v", mlOut.Cost, bestCost)
	}
	if !EqualMessages(mlOut.Message, bestMsg, p.MessageBits) && mlOut.Cost > bestCost+1e-9 {
		t.Fatalf("ML decoder did not return an optimal message")
	}

	// A narrow beam can do no better than ML.
	beam, _ := NewBeamDecoder(p, 2)
	beamOut, _ := beam.Decode(obs)
	if beamOut.Cost < mlOut.Cost-1e-9 {
		t.Fatalf("beam decoder cost %v beats ML cost %v", beamOut.Cost, mlOut.Cost)
	}
}

func TestBeamDecoderPuncturedLevel(t *testing.T) {
	// No observations at all for spine value 0: the decoder must expand that
	// level without pruning and still recover the message from the remaining
	// levels' observations (3 noiseless passes).
	p := Params{K: 4, C: 8, MessageBits: 12, Seed: 21}
	msg := testMessage(22, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	obs, _ := NewObservations(e.NumSegments())
	for pass := 0; pass < 3; pass++ {
		for s := 1; s < e.NumSegments(); s++ { // skip spine value 0 entirely
			obs.Add(SymbolPos{Spine: s, Pass: pass}, e.Symbol(s, pass))
		}
	}
	dec, _ := NewBeamDecoder(p, 16)
	out, err := dec.Decode(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(out.Message, msg, p.MessageBits) {
		t.Fatal("decode failed with a fully punctured first spine value")
	}
}

func TestBeamDecoderScaleDown(t *testing.T) {
	// Graceful scale-down (§3.2): at a fixed noise level and number of
	// passes, a wider beam should decode at least as many messages correctly
	// as a very narrow beam, and B=64 should be essentially perfect where
	// B=1 is noticeably lossy.
	p := DefaultParams()
	const trials = 40
	successes := func(beam int) int {
		src := rng.New(31)
		msgSrc := rng.New(32)
		ch, _ := impair.NewAWGN(10, src)
		dec, _ := NewBeamDecoder(p, beam)
		ok := 0
		for i := 0; i < trials; i++ {
			msg := RandomMessage(msgSrc, p.MessageBits)
			e, _ := NewEncoder(p, msg)
			obs, _ := NewObservations(e.NumSegments())
			for pass := 0; pass < 3; pass++ {
				for s := 0; s < e.NumSegments(); s++ {
					obs.Add(SymbolPos{Spine: s, Pass: pass}, ch.Corrupt(e.Symbol(s, pass)))
				}
			}
			out, err := dec.Decode(obs)
			if err != nil {
				t.Fatal(err)
			}
			if EqualMessages(out.Message, msg, p.MessageBits) {
				ok++
			}
		}
		return ok
	}
	narrow := successes(1)
	wide := successes(64)
	if wide < narrow {
		t.Fatalf("wider beam decoded fewer messages: B=1 %d vs B=64 %d", narrow, wide)
	}
	if wide < trials*3/4 {
		t.Fatalf("B=64 decoded only %d/%d at 10 dB with 3 passes", wide, trials)
	}
}

func TestBeamDecoderBSCNoiseless(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 16, Seed: 41}
	msg := testMessage(42, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	obs, _ := NewBitObservations(e.NumSegments())
	// 12 noiseless passes = 12 coded bits per 4-bit segment.
	for pass := 0; pass < 12; pass++ {
		for s := 0; s < e.NumSegments(); s++ {
			obs.Add(SymbolPos{Spine: s, Pass: pass}, e.CodedBit(s, pass))
		}
	}
	dec, _ := NewBeamDecoder(p, 16)
	out, err := dec.DecodeBits(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(out.Message, msg, p.MessageBits) {
		t.Fatal("noiseless BSC decode failed")
	}
	if out.Cost != 0 {
		t.Fatalf("noiseless BSC decode has Hamming cost %v", out.Cost)
	}
}

func TestBeamDecoderBSCWithErrors(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 16, Seed: 43}
	msg := testMessage(44, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	src := rng.New(45)
	bsc, _ := channel.NewBSC(0.05, src)
	obs, _ := NewBitObservations(e.NumSegments())
	for pass := 0; pass < 20; pass++ {
		for s := 0; s < e.NumSegments(); s++ {
			obs.Add(SymbolPos{Spine: s, Pass: pass}, bsc.CorruptBit(e.CodedBit(s, pass)))
		}
	}
	dec, _ := NewBeamDecoder(p, 16)
	out, err := dec.DecodeBits(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualMessages(out.Message, msg, p.MessageBits) {
		t.Fatal("BSC decode with 5% crossover and 20 passes failed")
	}
}

func TestDecoderInputValidation(t *testing.T) {
	p := DefaultParams()
	dec, err := NewBeamDecoder(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(nil); err == nil {
		t.Error("nil observations accepted")
	}
	wrong, _ := NewObservations(7)
	if _, err := dec.Decode(wrong); err == nil {
		t.Error("mis-sized observations accepted")
	}
	if _, err := dec.DecodeBits(nil); err == nil {
		t.Error("nil bit observations accepted")
	}
	wrongBits, _ := NewBitObservations(7)
	if _, err := dec.DecodeBits(wrongBits); err == nil {
		t.Error("mis-sized bit observations accepted")
	}
	if _, err := NewBeamDecoder(p, 0); err == nil {
		t.Error("zero beam width accepted")
	}
	bad := p
	bad.C = 0
	if _, err := NewBeamDecoder(bad, 4); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestNodesExpandedBounded(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(55, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	dec, _ := NewBeamDecoder(p, 16)
	out, err := dec.Decode(observeNoiseless(t, e, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 expands 2^k nodes from the root, later levels at most B*2^k.
	maxNodes := 1<<uint(p.K) + (p.NumSegments()-1)*16*(1<<uint(p.K))
	if out.NodesExpanded > maxNodes {
		t.Fatalf("NodesExpanded = %d exceeds bound %d", out.NodesExpanded, maxNodes)
	}
	if dec.NodesExpanded() != out.NodesExpanded {
		t.Fatal("decoder accessor disagrees with result")
	}
}

func TestSelectorKeepsLowestCosts(t *testing.T) {
	sel := newSelector(3, 7)
	costs := []float64{5, 1, 9, 3, 7, 2, 8}
	for i, c := range costs {
		sel.offer(cand{cost: c, key: packKey(0, uint16(i))})
	}
	items := sel.canonical()
	if len(items) != 3 {
		t.Fatalf("selector kept %d items", len(items))
	}
	for _, n := range items {
		if n.cost > 3 {
			t.Fatalf("selector kept cost %v, want only {1,2,3}", n.cost)
		}
	}
}

func TestSelectorFewerThanKeep(t *testing.T) {
	sel := newSelector(10, 4)
	for i := 0; i < 4; i++ {
		sel.offer(cand{cost: float64(i), key: packKey(0, uint16(i))})
	}
	if len(sel.canonical()) != 4 {
		t.Fatalf("selector dropped items below capacity")
	}
}

func TestSelectorManyOffersExactMembership(t *testing.T) {
	// Force multiple quickselect compactions and verify the surviving set is
	// exactly the keep-smallest, in canonical key order.
	const keep = 32
	const n = 10000
	sel := newSelector(keep, n)
	src := rng.New(7)
	type ref struct {
		cost float64
		key  int64
	}
	refs := make([]ref, 0, n)
	for i := 0; i < n; i++ {
		c := src.Float64()
		key := packKey(int32(i/8), uint16(i%8))
		refs = append(refs, ref{c, key})
		sel.offer(cand{cost: c, key: key, spine: uint64(i)})
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].cost != refs[j].cost {
			return refs[i].cost < refs[j].cost
		}
		return refs[i].key < refs[j].key
	})
	want := map[int64]bool{}
	for _, r := range refs[:keep] {
		want[r.key] = true
	}
	items := sel.canonical()
	if len(items) != keep {
		t.Fatalf("selector kept %d items, want %d", len(items), keep)
	}
	for i, n := range items {
		if !want[n.key] {
			t.Fatalf("selector kept key %d, not among the %d smallest", n.key, keep)
		}
		if i > 0 && items[i-1].key >= n.key {
			t.Fatalf("canonical order violated at %d", i)
		}
	}
}

// TestSelectorWarmupSizes offers random candidate streams, with many ties in
// cost, to selectors sized for levels of every shape, and requires exactly
// the keep smallest under candLess, in key order. The need values cover every
// warm-up branch: an eighth of the level below twice the beam, between it and
// 128, and at or above 128; keep = 4096 is above 128 on its own.
func TestSelectorWarmupSizes(t *testing.T) {
	src := rng.New(11)
	needs := []int{1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 63, 64, 100, 127, 128, 129,
		255, 256, 511, 1000, 1023, 1024, 1025, 2047, 4095, 4096, 8191, 8192}
	for i := 0; i < 8; i++ {
		needs = append(needs, 1+src.Intn(8192))
	}
	var sel selector
	for _, keep := range []int{1, 2, 8, 16, 4096} {
		for _, need := range needs {
			cands := make([]cand, need)
			for i := range cands {
				// Costs drawn from a few values tie often, so the key
				// tie-break decides membership; keys are the level's
				// (parent, seg) pairs, offered in a random order.
				cands[i] = cand{cost: float64(src.Intn(5)), key: packKey(int32(i/16), uint16(i%16)), spine: uint64(i)}
			}
			for i := len(cands) - 1; i > 0; i-- {
				j := src.Intn(i + 1)
				cands[i], cands[j] = cands[j], cands[i]
			}
			sel.reset(keep, need)
			for _, c := range cands {
				sel.offer(c)
			}
			got := sel.canonical()

			want := slices.Clone(cands)
			slices.SortFunc(want, func(a, b cand) int {
				if candLess(&a, &b) {
					return -1
				}
				return 1
			})
			want = want[:min(keep, need)]
			slices.SortFunc(want, func(a, b cand) int { return cmp.Compare(a.key, b.key) })
			if !slices.Equal(got, want) {
				t.Fatalf("keep=%d need=%d: selector kept %d candidates that differ from the %d smallest",
					keep, need, len(got), len(want))
			}
		}
	}
}

func BenchmarkBeamDecodeOnePass(b *testing.B) {
	p := DefaultParams()
	msg := testMessage(1, p.MessageBits)
	e, _ := NewEncoder(p, msg)
	obs, _ := NewObservations(e.NumSegments())
	src := rng.New(2)
	ch, _ := impair.NewAWGN(20, src)
	for s := 0; s < e.NumSegments(); s++ {
		obs.Add(SymbolPos{Spine: s, Pass: 0}, ch.Corrupt(e.Symbol(s, 0)))
	}
	dec, _ := NewBeamDecoder(p, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(obs); err != nil {
			b.Fatal(err)
		}
	}
}
