package link_test

import (
	"bytes"
	"errors"
	"testing"

	"spinal/internal/link"
	"spinal/internal/rng"
)

// TestStackedFaultsDeliverBitIdentical is the reordering/loss robustness
// property test: frames pushed through a stacked reorder + burst-loss +
// duplication fault schedule must deliver payloads bit-identical to what was
// sent, across several schedule seeds. Loss costs redundancy frames, never
// correctness; duplicates and bounded reorder only change the fold order of
// CRC-gated observations.
func TestStackedFaultsDeliverBitIdentical(t *testing.T) {
	// The stacked profile in the key=value config syntax: bounded reorder,
	// duplication, and Gilbert-Elliott bursts that drop every frame while the
	// channel is bad.
	profile, err := link.ParseFaultProfile("reorder=0.25,depth=6,dup=0.15,ge=0.05:0.4:0:1")
	if err != nil {
		t.Fatal(err)
	}

	cfg := link.Config{K: 4, Seed: 77}
	payloads := make([][]byte, 3)
	src := rng.New(12345)
	for m := range payloads {
		payloads[m] = make([]byte, 16+8*m)
		src.Bytes(payloads[m])
	}
	// Each message's deterministic frame sequence, with ample redundancy so
	// burst loss cannot starve decoding.
	frames := make([][][]byte, len(payloads))
	for m, p := range payloads {
		fs, err := link.EncodeFrames(cfg, 1, uint32(m+1), p, 24, 24, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[m] = fs
	}

	for seed := uint64(1); seed <= 5; seed++ {
		far, near, err := link.NewPipePair(0, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr := link.NewFaultTransport(far, profile, link.FaultProfile{}, seed^0x5bf03635)
		recv, err := link.NewReceiver(near, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}

		delivered := map[uint32][]byte{}
		buf := make([]byte, link.MaxFrameSize)
		drain := func() {
			for {
				n, err := near.Receive(buf, 0)
				if errors.Is(err, link.ErrTimeout) {
					return
				}
				if err != nil {
					t.Fatalf("seed %d: receive: %v", seed, err)
				}
				d, err := recv.HandleFrame(buf[:n])
				if err != nil {
					t.Fatalf("seed %d: handle frame: %v", seed, err)
				}
				if d == nil {
					continue
				}
				if prev, ok := delivered[d.MsgID]; ok && !bytes.Equal(prev, d.Payload) {
					t.Fatalf("seed %d: msg %d delivered twice with different payloads", seed, d.MsgID)
				}
				delivered[d.MsgID] = d.Payload
			}
		}

		// Interleave the messages' frames pass by pass, draining as we go so
		// the pipe never fills.
		for pass := 0; pass < 24; pass++ {
			for m := range frames {
				if err := tr.Send(frames[m][pass]); err != nil {
					t.Fatalf("seed %d: send: %v", seed, err)
				}
			}
			drain()
		}
		drain()

		for m, p := range payloads {
			got, ok := delivered[uint32(m+1)]
			if !ok {
				t.Fatalf("seed %d: msg %d never delivered under stacked faults", seed, m+1)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("seed %d: msg %d payload not bit-identical to what was sent", seed, m+1)
			}
		}

		recv.Close()
		near.Close()
		far.Close()
	}
}
