package core

import (
	"fmt"
	"slices"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// Tests that a decoder keeps nothing from one decode to the next but
// buffers: every Decode of a container that grows symbol by symbol must
// equal a fresh decoder's decode of a copy of that container — same message,
// same cost, same NodesExpanded and NodesSaved — however the decoder was
// used before. The cases cover both channel kinds, both search modes, the
// sequential and striped schedules at several attempt spacings, a Reset
// between messages, one decoder alternating between two containers, two
// decoders alternating on one container, and SetSearchMode between
// attempts.

// streamCase is one code, schedule and attempt spacing.
type streamCase struct {
	name    string
	params  Params
	striped bool
	// attemptEvery is the number of symbols between decode attempts (1 =
	// every symbol).
	attemptEvery int
	passes       int
}

func streamCases() []streamCase {
	return []streamCase{
		{name: "sequential/every-symbol", params: Params{K: 4, C: 8, MessageBits: 24, Seed: 101}, attemptEvery: 1, passes: 6},
		{name: "sequential/every-3", params: Params{K: 4, C: 8, MessageBits: 24, Seed: 102}, attemptEvery: 3, passes: 6},
		{name: "striped/every-symbol", params: Params{K: 4, C: 8, MessageBits: 26, Seed: 103}, striped: true, attemptEvery: 1, passes: 6},
		{name: "striped/every-5", params: Params{K: 6, C: 8, MessageBits: 30, Seed: 104}, striped: true, attemptEvery: 5, passes: 8},
	}
}

func caseSchedule(t *testing.T, tc streamCase) Schedule {
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

// stream is one message's symbols (or coded bits) arriving in schedule
// order in one observation container.
type stream interface {
	// observe adds the next symbol to the container.
	observe(t *testing.T)
	// decode decodes the container with dec.
	decode(t *testing.T, dec *BeamDecoder) *DecodeResult
	// decodeCopy decodes a copy of the container with dec.
	decodeCopy(t *testing.T, dec *BeamDecoder) *DecodeResult
	// next empties the container and starts the stream's next message.
	next(t *testing.T)
}

// channelKind builds the streams of one channel kind.
type channelKind struct {
	// extraPasses lengthens every stream of the kind.
	extraPasses int
	newStream   func(t *testing.T, p Params, sched Schedule, seed uint64) stream
}

// symbols is the length of one message's stream for tc.
func (k channelKind) symbols(tc streamCase) int {
	return (tc.passes + k.extraPasses) * tc.params.NumSegments()
}

var (
	awgnKind = channelKind{newStream: newAWGNStream}
	// Coded bits carry less than symbols, so BSC streams run longer.
	bscKind = channelKind{extraPasses: 6, newStream: newBSCStream}
)

// messageStream is what both channel kinds' streams share: the code, the
// schedule and the seeded message in flight.
type messageStream struct {
	p     Params
	sched Schedule
	seed  uint64
	msgs  uint64
	enc   *Encoder
	sent  int
}

// nextMessage starts the stream's next message, drawn with salt.
func (m *messageStream) nextMessage(t *testing.T, salt uint64) {
	t.Helper()
	var err error
	m.enc, err = NewEncoder(m.p, RandomMessage(rng.New(m.seed^salt^m.msgs<<32), m.p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	m.msgs++
	m.sent = 0
}

// nextPos returns the position of the message's next symbol.
func (m *messageStream) nextPos() SymbolPos {
	pos := m.sched.Pos(m.sent)
	m.sent++
	return pos
}

// awgnStream sends seeded messages over 6 dB AWGN.
type awgnStream struct {
	messageStream
	ch  *impair.Pipeline
	obs *Observations
}

func newAWGNStream(t *testing.T, p Params, sched Schedule, seed uint64) stream {
	t.Helper()
	ch, err := impair.NewAWGN(6, rng.New(seed^0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := NewObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	s := &awgnStream{messageStream: messageStream{p: p, sched: sched, seed: seed}, ch: ch, obs: obs}
	s.next(t)
	return s
}

func (s *awgnStream) next(t *testing.T) {
	t.Helper()
	s.nextMessage(t, 0xf00d)
	s.obs.Reset()
}

func (s *awgnStream) observe(t *testing.T) {
	t.Helper()
	pos := s.nextPos()
	if err := s.obs.Add(pos, s.ch.Corrupt(s.enc.SymbolAt(pos))); err != nil {
		t.Fatal(err)
	}
}

func (s *awgnStream) decode(t *testing.T, dec *BeamDecoder) *DecodeResult {
	t.Helper()
	out, err := dec.Decode(s.obs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (s *awgnStream) decodeCopy(t *testing.T, dec *BeamDecoder) *DecodeResult {
	t.Helper()
	out, err := dec.Decode(&Observations{spines: cloneSpines(s.obs.spines), count: s.obs.count})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bscStream sends seeded messages' coded bits over a BSC(0.08), where the
// Hamming metric's integer costs make ties common: the regime where only
// the strict (cost, parent, seg) order keeps selections in agreement.
type bscStream struct {
	messageStream
	ch  *channel.BSC
	obs *BitObservations
}

func newBSCStream(t *testing.T, p Params, sched Schedule, seed uint64) stream {
	t.Helper()
	ch, err := channel.NewBSC(0.08, rng.New(seed^0x1234))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := NewBitObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	s := &bscStream{messageStream: messageStream{p: p, sched: sched, seed: seed}, ch: ch, obs: obs}
	s.next(t)
	return s
}

func (s *bscStream) next(t *testing.T) {
	t.Helper()
	s.nextMessage(t, 0xabcd)
	s.obs.Reset()
}

func (s *bscStream) observe(t *testing.T) {
	t.Helper()
	pos := s.nextPos()
	if err := s.obs.Add(pos, s.ch.CorruptBit(s.enc.CodedBit(pos.Spine, pos.Pass))); err != nil {
		t.Fatal(err)
	}
}

func (s *bscStream) decode(t *testing.T, dec *BeamDecoder) *DecodeResult {
	t.Helper()
	out, err := dec.DecodeBits(s.obs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (s *bscStream) decodeCopy(t *testing.T, dec *BeamDecoder) *DecodeResult {
	t.Helper()
	out, err := dec.DecodeBits(&BitObservations{spines: cloneSpines(s.obs.spines), count: s.obs.count})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// cloneSpines deep-copies a container's per-spine observation lists.
func cloneSpines[T any](spines [][]T) [][]T {
	out := make([][]T, len(spines))
	for i, s := range spines {
		out[i] = slices.Clone(s)
	}
	return out
}

// checkStateless decodes s's container with dec and requires exactly what a
// fresh decoder, configured like dec, returns for a copy of the container.
func checkStateless(t *testing.T, dec *BeamDecoder, s stream, at string) {
	t.Helper()
	got := s.decode(t, dec)
	fresh, err := newBeamDecoder(dec.p, dec.b, dec.maxCand)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetSearchMode(dec.search); err != nil {
		t.Fatal(err)
	}
	want := s.decodeCopy(t, fresh)
	if !EqualMessages(got.Message, want.Message, dec.p.MessageBits) || got.Cost != want.Cost ||
		got.NodesExpanded != want.NodesExpanded || got.NodesSaved != want.NodesSaved {
		t.Fatalf("%s: decode %+v differs from a fresh decoder's decode of a copy %+v", at, *got, *want)
	}
}

// TestIncrementalMatchesFromScratchAWGN feeds AWGN symbols into a container
// one at a time and checks every decode of it against a fresh decoder's
// decode of a copy (see testRepeatedDecodes).
func TestIncrementalMatchesFromScratchAWGN(t *testing.T) {
	testRepeatedDecodes(t, awgnKind)
}

// TestIncrementalMatchesFromScratchBSC is the binary-channel counterpart.
func TestIncrementalMatchesFromScratchBSC(t *testing.T) {
	testRepeatedDecodes(t, bscKind)
}

// testRepeatedDecodes runs every stream case under both search modes with
// one decoder per case, then the reuse cases on the first stream case's
// code with an attempt after every symbol.
func testRepeatedDecodes(t *testing.T, kind channelKind) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			forModes(t, func(t *testing.T, mode SearchMode) {
				p := tc.params
				dec := newModeDecoder(t, p, mode)
				s := kind.newStream(t, p, caseSchedule(t, tc), p.Seed)
				attempts := 0
				for i := 1; i <= kind.symbols(tc); i++ {
					s.observe(t)
					if i%tc.attemptEvery == 0 {
						checkStateless(t, dec, s, fmt.Sprintf("attempt at %d symbols", i))
						attempts++
					}
				}
				if attempts < 2 {
					t.Fatal("scenario exercised fewer than two attempts")
				}
			})
		})
	}

	tc := streamCases()[0]
	p, sched, n := tc.params, caseSchedule(t, tc), kind.symbols(tc)
	t.Run("reset", func(t *testing.T) {
		// One decoder and one container, Reset between three messages.
		dec := newModeDecoder(t, p, SearchExact)
		s := kind.newStream(t, p, sched, p.Seed)
		for msg := 0; msg < 3; msg++ {
			if msg > 0 {
				s.next(t)
			}
			for i := 1; i <= n; i++ {
				s.observe(t)
				checkStateless(t, dec, s, fmt.Sprintf("message %d at %d symbols", msg, i))
			}
		}
	})
	t.Run("alternate-containers", func(t *testing.T) {
		// One decoder alternating between two messages' containers.
		dec := newModeDecoder(t, p, SearchExact)
		streams := []stream{kind.newStream(t, p, sched, p.Seed), kind.newStream(t, p, sched, p.Seed+1)}
		for i := 1; i <= n; i++ {
			for c, s := range streams {
				s.observe(t)
				checkStateless(t, dec, s, fmt.Sprintf("container %d at %d symbols", c, i))
			}
		}
	})
	t.Run("two-decoders", func(t *testing.T) {
		// Two decoders taking turns on one container.
		decs := []*BeamDecoder{newModeDecoder(t, p, SearchExact), newModeDecoder(t, p, SearchExact)}
		s := kind.newStream(t, p, sched, p.Seed)
		for i := 1; i <= n; i++ {
			s.observe(t)
			checkStateless(t, decs[i%2], s, fmt.Sprintf("decoder %d at %d symbols", i%2, i))
		}
	})
	t.Run("set-search-mode", func(t *testing.T) {
		// The search mode flips before every attempt.
		dec := newModeDecoder(t, p, SearchExact)
		s := kind.newStream(t, p, sched, p.Seed)
		for i := 1; i <= n; i++ {
			s.observe(t)
			if err := dec.SetSearchMode(searchModes[i%len(searchModes)]); err != nil {
				t.Fatal(err)
			}
			checkStateless(t, dec, s, fmt.Sprintf("%v at %d symbols", dec.SearchMode(), i))
		}
	})
}
