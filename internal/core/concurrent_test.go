package core

import (
	"fmt"
	"sync"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// Tests for decoding different messages at once. Every decode runs on its
// caller's goroutine; concurrency comes from decoding different messages on
// different goroutines, each with its own decoder leased from one shared
// DecoderPool (the link receiver's decode workers, the experiment runner's
// trial workers). The contract under test is strict: every attempt of every
// message decoded that way must produce the DecodeResult the same message
// gets when all messages are decoded one after another on one goroutine
// with fresh decoders — same message, same cost, same
// NodesExpanded/NodesSaved accounting — over both channel kinds and both
// search modes.

const (
	// parallelWorkers is the number of goroutines the messages are spread
	// over.
	parallelWorkers = 3
	// messagesPerWorker is the number of messages each goroutine decodes in
	// turn, so the later ones run on decoders another message released.
	messagesPerWorker = 2
)

// flowDecoders is what one message is decoded with: a decoder and the
// observation containers it reads.
type flowDecoders struct {
	dec  *BeamDecoder
	obs  *Observations
	bits *BitObservations
}

// decodeFlow feeds message j's symbol stream into fd and returns every
// attempt's result, in order.
type decodeFlow func(j int, fd flowDecoders) ([]DecodeResult, error)

// snapshot copies r so that a later decode cannot alter it.
func snapshot(r *DecodeResult) DecodeResult {
	c := *r
	c.Message = append([]byte(nil), r.Message...)
	return c
}

// freshFlowDecoders builds the serial reference's decoders for p.
func freshFlowDecoders(p Params, mode SearchMode) (flowDecoders, error) {
	var fd flowDecoders
	var err error
	if fd.dec, err = NewBeamDecoder(p, 8); err != nil {
		return fd, err
	}
	if err := fd.dec.SetSearchMode(mode); err != nil {
		return fd, err
	}
	if fd.obs, err = NewObservations(p.NumSegments()); err != nil {
		return fd, err
	}
	fd.bits, err = NewBitObservations(p.NumSegments())
	return fd, err
}

// leaseFlowDecoders leases one message's decoder from pool; release
// returns it.
func leaseFlowDecoders(pool *DecoderPool, p Params, mode SearchMode) (fd flowDecoders, release func(), err error) {
	l, err := pool.Lease(p, 8)
	if err != nil {
		return fd, func() {}, err
	}
	if err := l.Dec.SetSearchMode(mode); err != nil {
		return fd, l.Release, err
	}
	fd.dec, fd.obs = l.Dec, l.Obs
	fd.bits, err = l.Bits()
	return fd, l.Release, err
}

// checkParallelMatchesSerial decodes parallelWorkers·messagesPerWorker
// messages with decode: first one after another on the test goroutine with
// fresh decoders, then spread over parallelWorkers goroutines leasing from
// one shared pool. Every attempt must agree between the two runs.
func checkParallelMatchesSerial(t *testing.T, p Params, mode SearchMode, decode decodeFlow) {
	t.Helper()
	n := parallelWorkers * messagesPerWorker
	serial := make([][]DecodeResult, n)
	for j := range serial {
		fd, err := freshFlowDecoders(p, mode)
		if err != nil {
			t.Fatal(err)
		}
		if serial[j], err = decode(j, fd); err != nil {
			t.Fatal(err)
		}
		if len(serial[j]) < 2 {
			t.Fatalf("message %d: scenario exercised fewer than two attempts", j)
		}
	}

	pool := NewDecoderPool(parallelWorkers)
	parallel := make([][]DecodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < parallelWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += parallelWorkers {
				fd, release, err := leaseFlowDecoders(pool, p, mode)
				if err == nil {
					parallel[j], err = decode(j, fd)
				}
				release()
				if err != nil {
					errs[j] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("message %d: %v", j, err)
		}
	}

	for j := range serial {
		if len(parallel[j]) != len(serial[j]) {
			t.Fatalf("message %d: %d results in parallel, %d serially", j, len(parallel[j]), len(serial[j]))
		}
		for a, want := range serial[j] {
			got := parallel[j][a]
			if !EqualMessages(got.Message, want.Message, p.MessageBits) || got.Cost != want.Cost ||
				got.NodesExpanded != want.NodesExpanded || got.NodesSaved != want.NodesSaved {
				t.Fatalf("message %d, result %d: parallel %+v differs from serial %+v", j, a, got, want)
			}
		}
	}

	// At most parallelWorkers decoders are ever leased at once and none is
	// discarded, so every lease beyond the first parallelWorkers reuses a
	// released decoder.
	st := pool.Stats()
	if st.Outstanding != 0 || st.Discards != 0 {
		t.Fatalf("pool after the run: %+v, want no outstanding leases and no discards", st)
	}
	if minHits := uint64(parallelWorkers * (messagesPerWorker - 1)); st.Hits < minHits {
		t.Fatalf("pool served %d leases from its idle cache, want at least %d", st.Hits, minHits)
	}
}

// TestParallelMatchesSerialAWGN checks concurrent decoding of different
// messages against serial decoding over an AWGN channel.
func TestParallelMatchesSerialAWGN(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				checkParallelMatchesSerial(t, p, mode, func(j int, fd flowDecoders) ([]DecodeResult, error) {
					salt := uint64(j) << 32
					enc, err := NewEncoder(p, RandomMessage(rng.New(p.Seed^0xf00d^salt), p.MessageBits))
					if err != nil {
						return nil, err
					}
					ch, err := impair.NewAWGN(6, rng.New(p.Seed^0xbeef^salt))
					if err != nil {
						return nil, err
					}
					var results []DecodeResult
					for i := 0; i < tc.passes*p.NumSegments(); i++ {
						pos := sched.Pos(i)
						if err := fd.obs.Add(pos, ch.Corrupt(enc.SymbolAt(pos))); err != nil {
							return nil, err
						}
						if (i+1)%tc.attemptEvery != 0 {
							continue
						}
						got, err := fd.dec.Decode(fd.obs)
						if err != nil {
							return nil, fmt.Errorf("attempt at %d symbols: %w", i+1, err)
						}
						results = append(results, snapshot(got))
					}
					return results, nil
				})
			})
		})
	}
}

// TestParallelMatchesSerialBSC is the binary-channel counterpart, where the
// Hamming metric's integer costs make ties common.
func TestParallelMatchesSerialBSC(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				sched := caseSchedule(t, tc)
				checkParallelMatchesSerial(t, p, mode, func(j int, fd flowDecoders) ([]DecodeResult, error) {
					salt := uint64(j) << 32
					enc, err := NewEncoder(p, RandomMessage(rng.New(p.Seed^0xabcd^salt), p.MessageBits))
					if err != nil {
						return nil, err
					}
					bsc, err := channel.NewBSC(0.08, rng.New(p.Seed^0x1234^salt))
					if err != nil {
						return nil, err
					}
					var results []DecodeResult
					for i := 0; i < (tc.passes+6)*p.NumSegments(); i++ {
						pos := sched.Pos(i)
						if err := fd.bits.Add(pos, bsc.CorruptBit(enc.CodedBit(pos.Spine, pos.Pass))); err != nil {
							return nil, err
						}
						if (i+1)%tc.attemptEvery != 0 {
							continue
						}
						got, err := fd.dec.DecodeBits(fd.bits)
						if err != nil {
							return nil, fmt.Errorf("attempt at %d bits: %w", i+1, err)
						}
						results = append(results, snapshot(got))
					}
					return results, nil
				})
			})
		})
	}
}
