package spinal_test

import (
	"math"
	"testing"

	"spinal"
)

func TestNewCodeDefaults(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg := code.Config()
	if cfg.K != 8 || cfg.C != 10 || cfg.BeamWidth != 16 || cfg.Mapper != "linear" {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if code.MessageBytes() != 3 || code.NumSegments() != 3 {
		t.Fatalf("derived sizes wrong: %d bytes, %d segments", code.MessageBytes(), code.NumSegments())
	}
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := spinal.NewCode(spinal.Config{}); err == nil {
		t.Error("missing MessageBits accepted")
	}
	if _, err := spinal.NewCode(spinal.Config{MessageBits: 24, K: 99}); err == nil {
		t.Error("absurd K accepted")
	}
	if _, err := spinal.NewCode(spinal.Config{MessageBits: 24, Mapper: "bogus"}); err == nil {
		t.Error("unknown mapper accepted")
	}
	if _, err := spinal.NewCode(spinal.Config{MessageBits: 24, BeamWidth: -1}); err == nil {
		t.Error("negative beam accepted")
	}
}

func TestEncodeDecodeNoiselessRoundTrip(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(64, 1)
	stream, err := code.EncodeStream(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	// Two full passes of noiseless symbols.
	for i := 0; i < 2*code.NumSegments(); i++ {
		sym := stream.Next()
		if err := dec.Observe(sym.Pos, sym.Value); err != nil {
			t.Fatal(err)
		}
	}
	if stream.Emitted() != 2*code.NumSegments() {
		t.Fatalf("Emitted = %d", stream.Emitted())
	}
	if dec.Observations() != 2*code.NumSegments() {
		t.Fatalf("Observations = %d", dec.Observations())
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !code.Equal(got, msg) {
		t.Fatal("noiseless round trip failed")
	}
}

// TestDecoderRejectsNonFiniteValues feeds NaN, +Inf and -Inf through
// Observe and ObserveBatch: each must fail and record nothing, so the clean
// passes observed afterwards still decode the message.
func TestDecoderRejectsNonFiniteValues(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(64, 2)
	for _, bad := range []complex128{
		complex(math.NaN(), 0),
		complex(0, math.Inf(1)),
		complex(math.Inf(-1), 1),
	} {
		stream, err := code.EncodeStream(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := code.NewDecoder()
		if err != nil {
			t.Fatal(err)
		}
		pass := stream.EncodePass(nil)
		poss := make([]spinal.SymbolPos, len(pass))
		vals := make([]complex128, len(pass))
		for i, sym := range pass {
			poss[i], vals[i] = sym.Pos, sym.Value
		}
		if err := dec.Observe(poss[0], bad); err == nil {
			t.Errorf("Observe(%v) accepted", bad)
		}
		clean := vals[len(vals)/2]
		vals[len(vals)/2] = bad
		if err := dec.ObserveBatch(poss, vals); err == nil {
			t.Errorf("ObserveBatch with %v accepted", bad)
		}
		if n := dec.Observations(); n != 0 {
			t.Fatalf("%v: %d observations recorded after rejected calls", bad, n)
		}
		vals[len(vals)/2] = clean
		for p := 0; p < 2; p++ {
			if err := dec.ObserveBatch(poss, vals); err != nil {
				t.Fatal(err)
			}
			for i, sym := range stream.EncodePass(pass) {
				poss[i], vals[i] = sym.Pos, sym.Value
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !code.Equal(got, msg) {
			t.Fatalf("%v: clean passes after the rejected ones did not decode", bad)
		}
	}
}

func TestEncodeStreamRejectsBadMessage(t *testing.T) {
	code, _ := spinal.NewCode(spinal.Config{MessageBits: 24})
	if _, err := code.EncodeStream([]byte{1}); err == nil {
		t.Error("short message accepted")
	}
}

func TestStreamAt(t *testing.T) {
	code, _ := spinal.NewCode(spinal.Config{MessageBits: 24})
	msg := spinal.RandomMessage(24, 2)

	// At must agree with Next at every index over several passes, and must
	// not advance the stream.
	stream, _ := code.EncodeStream(msg)
	probe, _ := code.EncodeStream(msg)
	n := 4 * code.NumSegments()
	for i := 0; i < n; i++ {
		got, err := probe.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := stream.Next(); got != want {
			t.Fatalf("At(%d) = %+v disagrees with Next() = %+v", i, got, want)
		}
	}
	if probe.Emitted() != 0 {
		t.Fatalf("At advanced the stream: Emitted = %d", probe.Emitted())
	}
	// Revisiting an already-emitted index (a retransmission) still agrees
	// with a fresh read of the same index.
	a, err := stream.At(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := probe.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("At(2) depends on stream progress")
	}
	if _, err := stream.At(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestNextBatchMatchesNext(t *testing.T) {
	// NextBatch must be bit-identical to repeated Next, across batch sizes
	// that straddle pass boundaries, and EncodePass must emit exactly the
	// next whole pass.
	code, _ := spinal.NewCode(spinal.Config{MessageBits: 64})
	msg := spinal.RandomMessage(64, 3)
	scalar, _ := code.EncodeStream(msg)
	batched, _ := code.EncodeStream(msg)

	for _, size := range []int{1, 3, code.NumSegments(), 2*code.NumSegments() + 1} {
		batch := batched.NextBatch(make([]spinal.Symbol, size))
		if len(batch) != size {
			t.Fatalf("NextBatch returned %d symbols, want %d", len(batch), size)
		}
		for i, got := range batch {
			if want := scalar.Next(); got != want {
				t.Fatalf("batch size %d: symbol %d = %+v, want %+v", size, i, got, want)
			}
		}
		if batched.Emitted() != scalar.Emitted() {
			t.Fatalf("Emitted diverged: %d vs %d", batched.Emitted(), scalar.Emitted())
		}
	}

	pass := batched.EncodePass(nil)
	if len(pass) != code.NumSegments() {
		t.Fatalf("EncodePass returned %d symbols, want %d", len(pass), code.NumSegments())
	}
	for i, got := range pass {
		if want := scalar.Next(); got != want {
			t.Fatalf("EncodePass symbol %d = %+v, want %+v", i, got, want)
		}
	}
	// EncodePass reuses a caller-provided buffer with enough capacity.
	reused := batched.EncodePass(pass)
	if &reused[0] != &pass[0] {
		t.Error("EncodePass did not reuse the provided buffer")
	}
	// An empty batch is a no-op.
	if out := batched.NextBatch(nil); len(out) != 0 {
		t.Fatal("NextBatch(nil) emitted symbols")
	}
}

// roundTrip decodes two noiseless passes of msg through dec and returns the
// decoded message.
func roundTrip(t *testing.T, code *spinal.Code, dec *spinal.Decoder, msg []byte) []byte {
	t.Helper()
	stream, err := code.EncodeStream(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*code.NumSegments(); i++ {
		sym := stream.Next()
		if err := dec.Observe(sym.Pos, sym.Value); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDecoderPoolLeaseRoundTrip(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	pool := spinal.NewDecoderPool(4)
	// Several messages in sequence through the pool: every lease after the
	// first reuses the released decoder, and every decode is correct.
	for i := 0; i < 3; i++ {
		msg := spinal.RandomMessage(64, uint64(i+1))
		dec, err := pool.Lease(code)
		if err != nil {
			t.Fatal(err)
		}
		if got := roundTrip(t, code, dec, msg); !code.Equal(got, msg) {
			t.Fatalf("lease %d: pooled decoder failed the round trip", i)
		}
		dec.Release()
	}
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("pool did not reuse the decoder: %+v", s)
	}
	if s.Idle != 1 {
		t.Fatalf("released decoder not idle in the pool: %+v", s)
	}
	// Release on a non-pooled decoder is a harmless no-op.
	plain, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	plain.Release()
	msg := spinal.RandomMessage(64, 9)
	if got := roundTrip(t, code, plain, msg); !code.Equal(got, msg) {
		t.Fatal("plain decoder broken after no-op Release")
	}
}

func TestDecoderReleaseNoOpOnNonPooled(t *testing.T) {
	// Release on a decoder built by Code.NewDecoder must be a safe no-op —
	// before use, repeatedly, and interleaved with real work — pinning the
	// facade contract rather than relying on the internal nil-receiver guard
	// alone.
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	dec.Release()
	dec.Release() // idempotent
	msg := spinal.RandomMessage(64, 10)
	if got := roundTrip(t, code, dec, msg); !code.Equal(got, msg) {
		t.Fatal("decoder unusable after no-op Releases")
	}
	if dec.NodesExpanded() <= 0 {
		t.Fatal("NodesExpanded lost after no-op Release")
	}
	// Release after use, then reuse via Reset: still fully functional.
	dec.Release()
	dec.Reset()
	if dec.Observations() != 0 {
		t.Fatal("Reset after Release did not clear observations")
	}
	msg2 := spinal.RandomMessage(64, 11)
	if got := roundTrip(t, code, dec, msg2); !code.Equal(got, msg2) {
		t.Fatal("decoder broken after Release/Reset cycle")
	}
}

func TestDecoderResetReuse(t *testing.T) {
	// One Decoder instance, reused via Reset across several messages, must
	// behave exactly like a fresh decoder for each — this is the
	// allocation-free reuse path a high-throughput receiver runs.
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		msg := spinal.RandomMessage(64, uint64(round)+1)
		stream, err := code.EncodeStream(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*code.NumSegments(); i++ {
			sym := stream.Next()
			if err := dec.Observe(sym.Pos, sym.Value); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !code.Equal(got, msg) {
			t.Fatalf("round %d: reused decoder failed", round)
		}
		if dec.NodesExpanded() <= 0 {
			t.Fatalf("round %d: NodesExpanded not reported", round)
		}
		dec.Reset()
		if dec.Observations() != 0 {
			t.Fatal("Reset did not clear observations")
		}
	}
}

func TestDecoderIncrementalObserveDecodeLoop(t *testing.T) {
	// The natural rateless loop: observe one symbol, try a decode. The
	// final answer must be the message.
	code, err := spinal.NewCode(spinal.Config{MessageBits: 64, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(64, 7)
	stream, err := code.EncodeStream(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := code.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := 0; i < 3*code.NumSegments(); i++ {
		sym := stream.Next()
		if err := dec.Observe(sym.Pos, sym.Value); err != nil {
			t.Fatal(err)
		}
		got, err = dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !code.Equal(got, msg) {
		t.Fatal("interleaved observe/decode loop failed on a noiseless channel")
	}
}

func TestTransmitOverAWGN(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 96})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := spinal.NewAWGN(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	msg := spinal.RandomMessage(96, 4)
	res, err := code.TransmitOver(msg, ch, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("transmission at 15 dB failed")
	}
	if !code.Equal(res.Decoded, msg) {
		t.Fatal("decoded message mismatch")
	}
	if res.Rate <= 1 || res.Rate > spinal.ShannonCapacity(15) {
		t.Fatalf("rate %v implausible for 15 dB", res.Rate)
	}
}

func TestTransmitWithCRCVerifier(t *testing.T) {
	payload := []byte("hello, rateless world")
	framed := spinal.AppendCRC32(payload)
	code, err := spinal.NewCode(spinal.Config{MessageBits: len(framed) * 8})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := spinal.NewAWGN(18, 9)
	verify := func(decoded []byte) bool {
		_, ok := spinal.VerifyCRC32(decoded)
		return ok
	}
	res, err := code.TransmitOver(framed, ch, verify, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("CRC-verified transmission failed at 18 dB")
	}
	got, ok := spinal.VerifyCRC32(res.Decoded)
	if !ok || string(got) != string(payload) {
		t.Fatal("payload corrupted")
	}
}

func TestQuantizedChannelAndCapacities(t *testing.T) {
	ch, err := spinal.NewQuantizedAWGN(20, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch == nil {
		t.Fatal("nil channel")
	}
	if _, err := spinal.NewQuantizedAWGN(20, 0, 1); err == nil {
		t.Error("invalid ADC bits accepted")
	}
	if c := spinal.ShannonCapacity(30); c < 9.9 || c > 10.0 {
		t.Errorf("capacity at 30 dB = %v", c)
	}
	if c := spinal.BSCCapacity(0.5); c != 0 {
		t.Errorf("BSC capacity at p=0.5 = %v", c)
	}
	bsc, err := spinal.NewBSC(0.1, 1)
	if err != nil || bsc == nil {
		t.Fatal("BSC channel construction failed")
	}
	if _, err := spinal.NewBSC(0.9, 1); err == nil {
		t.Error("invalid crossover accepted")
	}
	if _, err := spinal.NewAWGN(-1000, 1); err != nil {
		// -1000 dB is tiny but still a positive linear SNR; must not error.
		t.Errorf("NewAWGN(-1000 dB) unexpectedly failed: %v", err)
	}
}

func TestRandomMessageDeterminism(t *testing.T) {
	a := spinal.RandomMessage(128, 7)
	b := spinal.RandomMessage(128, 7)
	c := spinal.RandomMessage(128, 8)
	if string(a) != string(b) {
		t.Fatal("same seed produced different messages")
	}
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical messages")
	}
}
