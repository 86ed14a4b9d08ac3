package core

import (
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// TestLeaseResetReuseAcrossTrials checks LeasedDecoder.reset: one
// lease reset between messages must decode exactly like a fresh decoder and
// container per message.
func TestLeaseResetReuseAcrossTrials(t *testing.T) {
	p := poolTestParams(32)
	pool := NewDecoderPool(4)
	lease, err := pool.Lease(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	for trial := 0; trial < 5; trial++ {
		msg := RandomMessage(rng.New(uint64(trial+1)*977), p.MessageBits)

		fresh, err := NewBeamDecoder(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		freshObs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		want := decodeThrough(t, fresh, freshObs, p, msg, 3)

		lease.reset()
		got := decodeThrough(t, lease.Dec, lease.Obs, p, msg, 3)

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d attempts vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Cost != want[i].Cost ||
				got[i].NodesExpanded != want[i].NodesExpanded ||
				!EqualMessages(got[i].Message, want[i].Message, p.MessageBits) {
				t.Fatalf("trial %d attempt %d: reused lease diverged from fresh decoder: %+v vs %+v",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestLeaseBitsContainer checks the lazily built BSC container: it matches
// the decoder's segment count, survives reset, and is reusable.
func TestLeaseBitsContainer(t *testing.T) {
	p := poolTestParams(32)
	pool := NewDecoderPool(2)
	lease, err := pool.Lease(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	bits, err := lease.Bits()
	if err != nil {
		t.Fatal(err)
	}
	if bits.NumSegments() != p.NumSegments() {
		t.Fatalf("bit container sized for %d segments, want %d", bits.NumSegments(), p.NumSegments())
	}
	if again, _ := lease.Bits(); again != bits {
		t.Fatal("Bits rebuilt the container on a second call")
	}
	if err := bits.Add(SymbolPos{Spine: 0, Pass: 0}, 1); err != nil {
		t.Fatal(err)
	}
	lease.reset()
	if bits.Count() != 0 || bits.PerSpine(0) != 0 {
		t.Fatalf("reset did not clear the bit container (count=%d, spine 0 holds %d)",
			bits.Count(), bits.PerSpine(0))
	}
}

// TestSessionPoolEquivalence checks SessionConfig.Pool end to end: pooled
// AWGN and BSC sessions must produce byte-identical transcripts to unpooled
// ones, and the pool must actually be used (a second trial hits the cache).
func TestSessionPoolEquivalence(t *testing.T) {
	p := poolTestParams(32)
	pool := NewDecoderPool(2)
	for trial := 0; trial < 3; trial++ {
		msg := RandomMessage(rng.New(uint64(trial+1)*131), p.MessageBits)
		cfg := SessionConfig{Params: p, BeamWidth: 8, MaxSymbols: 60 * p.NumSegments()}

		// 7.45 dB: about 0.3 noise standard deviation per dimension.
		mk := func() *impair.Pipeline {
			ch, err := impair.NewAWGN(7.45, rng.New(uint64(trial+1)*7919))
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
		want, err := RunChannelSession(cfg, msg, mk(), GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		pooled := cfg
		pooled.Pool = pool
		got, err := RunChannelSession(pooled, msg, mk(), GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if got.Success != want.Success || got.ChannelUses != want.ChannelUses ||
			got.Attempts != want.Attempts || got.NodesExpanded != want.NodesExpanded ||
			!EqualMessages(got.Decoded, want.Decoded, p.MessageBits) {
			t.Fatalf("trial %d: pooled session diverged: %+v vs %+v", trial, got, want)
		}

		mkBits := func() *channel.BSC {
			ch, err := channel.NewBSC(0.03, rng.New(uint64(trial+1)*104729))
			if err != nil {
				t.Fatal(err)
			}
			return ch
		}
		bitCfg := cfg
		bitCfg.MaxSymbols = 200 * p.NumSegments()
		wantBits, err := RunBitChannelSession(bitCfg, msg, mkBits(), GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		bitPooled := bitCfg
		bitPooled.Pool = pool
		gotBits, err := RunBitChannelSession(bitPooled, msg, mkBits(), GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if gotBits.Success != wantBits.Success || gotBits.ChannelUses != wantBits.ChannelUses ||
			gotBits.NodesExpanded != wantBits.NodesExpanded ||
			!EqualMessages(gotBits.Decoded, wantBits.Decoded, p.MessageBits) {
			t.Fatalf("trial %d: pooled bit session diverged: %+v vs %+v", trial, gotBits, wantBits)
		}
	}
	if s := pool.Stats(); s.Hits == 0 {
		t.Fatalf("pooled sessions never hit the cache: %+v", s)
	}
}
