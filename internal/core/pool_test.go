package core

import (
	"fmt"
	"sync"
	"testing"

	"spinal/internal/rng"
)

// poolTestParams is a small code so pooled-vs-fresh equivalence runs many
// messages quickly.
func poolTestParams(bits int) Params {
	return Params{K: 4, C: 8, MessageBits: bits, Seed: DefaultSeed}
}

// decodeThrough encodes msg, feeds `passes` noiseless passes to the given
// decoder/observation pair, and returns the decode result of each attempt
// (one attempt per pass, the natural rateless receive loop).
func decodeThrough(t *testing.T, dec *BeamDecoder, obs *Observations, p Params, msg []byte, passes int) []*DecodeResult {
	t.Helper()
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*DecodeResult
	for pass := 0; pass < passes; pass++ {
		for s := 0; s < p.NumSegments(); s++ {
			pos := SymbolPos{Spine: s, Pass: pass}
			if err := obs.Add(pos, enc.SymbolAt(pos)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestDecoderPoolLeaseReturn checks the basic lease/return cycle: a released
// decoder is handed out again for the same key, and keys never mix.
func TestDecoderPoolLeaseReturn(t *testing.T) {
	pool := NewDecoderPool(8)
	pA := poolTestParams(32)
	pB := poolTestParams(48)

	la, err := pool.Lease(pA, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first lease stats = %+v", s)
	}
	deca := la.Dec
	la.Release()
	if s := pool.Stats(); s.Idle != 1 {
		t.Fatalf("idle after release = %d", s.Idle)
	}

	// A different key must not receive the cached decoder.
	lb, err := pool.Lease(pB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Dec == deca {
		t.Fatal("pool handed a decoder to a different parameter key")
	}
	// The matching key must.
	la2, err := pool.Lease(pA, 8)
	if err != nil {
		t.Fatal(err)
	}
	if la2.Dec != deca {
		t.Fatal("pool did not reuse the idle decoder for the matching key")
	}
	if s := pool.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats after reuse = %+v", s)
	}
	// Beam width is part of the key: same params, different B → fresh build.
	lw, err := pool.Lease(pA, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lw.Dec == deca {
		t.Fatal("pool ignored beam width in the key")
	}
	la2.Release()
	la2.Release() // idempotent: double release must not double-cache
	if s := pool.Stats(); s.Idle != 1 {
		t.Fatalf("idle after double release = %d, want 1", s.Idle)
	}
}

// TestDecoderPoolCapacityBound checks that the idle cache never exceeds the
// configured capacity and that overflow releases are discarded, and that a
// zero-capacity pool caches nothing at all.
func TestDecoderPoolCapacityBound(t *testing.T) {
	pool := NewDecoderPool(3)
	p := poolTestParams(32)
	var leases []*LeasedDecoder
	for i := 0; i < 10; i++ {
		l, err := pool.Lease(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases {
		l.Release()
	}
	s := pool.Stats()
	if s.Idle != 3 {
		t.Fatalf("idle = %d, want capacity 3", s.Idle)
	}
	if s.Discards != 7 {
		t.Fatalf("discards = %d, want 7", s.Discards)
	}

	off := NewDecoderPool(0)
	l, err := off.Lease(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if s := off.Stats(); s.Idle != 0 || s.Discards != 1 {
		t.Fatalf("disabled pool stats = %+v", s)
	}

	pool.Drain()
	if s := pool.Stats(); s.Idle != 0 {
		t.Fatalf("idle after drain = %d", s.Idle)
	}
}

// TestDecoderPoolContention hammers one small pool from many goroutines with
// interleaved lease/decode/release cycles and checks (under -race) that the
// pool stays consistent and every goroutine decodes its own message
// correctly — leases must never alias while checked out.
func TestDecoderPoolContention(t *testing.T) {
	pool := NewDecoderPool(4)
	p := poolTestParams(32)
	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				msg := RandomMessage(rng.New(uint64(1000*g+round+1)), p.MessageBits)
				l, err := pool.Lease(p, 8)
				if err != nil {
					errs <- err
					return
				}
				enc, err := NewEncoder(p, msg)
				if err != nil {
					errs <- err
					return
				}
				for pass := 0; pass < 2; pass++ {
					for s := 0; s < p.NumSegments(); s++ {
						pos := SymbolPos{Spine: s, Pass: pass}
						if err := l.Obs.Add(pos, enc.SymbolAt(pos)); err != nil {
							errs <- err
							return
						}
					}
				}
				res, err := l.Dec.Decode(l.Obs)
				if err != nil {
					errs <- err
					return
				}
				if !EqualMessages(res.Message, msg, p.MessageBits) {
					errs <- fmt.Errorf("goroutine %d round %d: wrong decode through pooled decoder", g, round)
					return
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Idle > 4 {
		t.Fatalf("idle %d exceeds capacity 4", s.Idle)
	}
	if s.Hits+s.Misses != goroutines*rounds {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, goroutines*rounds)
	}
}

// TestDecoderPoolEquivalence runs a sequence of messages through one reused
// pooled decoder and through fresh decoders, attempt by attempt, and demands
// bit-identical messages, costs and node accounting — the pooled path must
// be indistinguishable from the fresh path.
func TestDecoderPoolEquivalence(t *testing.T) {
	p := poolTestParams(40)
	pool := NewDecoderPool(1)
	const passes = 3
	for trial := 0; trial < 5; trial++ {
		msg := RandomMessage(rng.New(uint64(77+trial)), p.MessageBits)

		l, err := pool.Lease(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		pooled := decodeThrough(t, l.Dec, l.Obs, p, msg, passes)

		fdec, err := NewBeamDecoder(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		fobs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		fresh := decodeThrough(t, fdec, fobs, p, msg, passes)

		for i := range fresh {
			pr, fr := pooled[i], fresh[i]
			if !EqualMessages(pr.Message, fr.Message, p.MessageBits) {
				t.Fatalf("trial %d attempt %d: pooled message differs from fresh", trial, i)
			}
			if pr.Cost != fr.Cost {
				t.Fatalf("trial %d attempt %d: pooled cost %v != fresh cost %v", trial, i, pr.Cost, fr.Cost)
			}
			if pr.NodesExpanded != fr.NodesExpanded {
				t.Fatalf("trial %d attempt %d: node accounting differs (pooled %d, fresh %d)",
					trial, i, pr.NodesExpanded, fr.NodesExpanded)
			}
		}
		// Return so the next trial reuses the same decoder — from trial 1 on,
		// every lease is a pool hit exercising the reset-on-release path.
		l.Release()
	}
	s := pool.Stats()
	if s.Hits != 4 || s.Misses != 1 {
		t.Fatalf("equivalence trials should reuse one decoder: %+v", s)
	}
}
