package link

import (
	"bytes"
	"math"
	"testing"
)

// hasNaNSymbol reports whether any symbol coordinate of the frame is NaN.
func hasNaNSymbol(f *DataFrame) bool {
	for _, s := range f.Symbols {
		if math.IsNaN(real(s)) || math.IsNaN(imag(s)) {
			return true
		}
	}
	return false
}

// FuzzUnmarshalFrame throws arbitrary bytes at the frame parser. The parser
// must never panic — it guards every length and bound — and any frame it
// does accept must survive a marshal/parse round trip unchanged (the two
// directions of the wire format agree with each other).
func FuzzUnmarshalFrame(f *testing.F) {
	// Seed corpus: a valid frame of every type, the retired flow-less
	// generation's data and ack bytes, plus the classic hostile shapes
	// (truncations, bad magic, absurd counts).
	data := &DataFrame{
		Version: FrameV1, FlowID: 9, MsgID: 7, MessageBits: 64, K: 8, C: 10,
		Schedule: ScheduleSequential, Seed: 42, StartIndex: 0,
		Symbols: []complex128{0.25i},
	}
	if buf, err := data.Marshal(); err == nil {
		f.Add(buf)
	}
	f.Add((&AckFrame{MsgID: 3, Decoded: true}).Marshal())
	f.Add((&AckFrame{FlowID: 12, MsgID: 3}).Marshal())
	v0data, v0ack := retiredV0Frames()
	f.Add(v0data)
	f.Add(v0ack)
	f.Add([]byte{})
	f.Add([]byte{frameMagic})
	f.Add([]byte{frameMagic, typeDataV1, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Add([]byte{frameMagic, typeAckV1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{frameMagic}, dataHeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The in-place parser and ParseFrame must agree on accept/reject —
		// they are two entrances to one wire format.
		var view FrameView
		viewErr := UnmarshalFrameInPlace(data, &view)
		parsed, err := ParseFrame(data)
		if (err == nil) != (viewErr == nil) {
			t.Fatalf("parsers disagree: ParseFrame err %v, in-place err %v", err, viewErr)
		}
		if err != nil {
			return
		}
		switch fr := parsed.(type) {
		case *DataFrame:
			if view.Kind != KindData {
				t.Fatalf("in-place view kind %d for a data frame", view.Kind)
			}
			if view.FlowID != fr.FlowID || view.MsgID != fr.MsgID ||
				view.MessageBits != fr.MessageBits || view.K != fr.K || view.C != fr.C ||
				view.Schedule != fr.Schedule || view.Seed != fr.Seed ||
				view.StartIndex != fr.StartIndex || view.NumSymbols != len(fr.Symbols) {
				t.Fatalf("in-place view header disagrees with ParseFrame:\nview: %+v\ndata: %+v", view, fr)
			}
			// The aliasing view must yield the same symbols, both per-symbol
			// and via the batch extraction.
			batch := make([]complex128, view.NumSymbols)
			view.SymbolsInto(batch)
			for i, want := range fr.Symbols {
				got := view.SymbolAt(i)
				if !sameComplex(got, want) || !sameComplex(batch[i], want) {
					t.Fatalf("symbol %d: view %v / batch %v, ParseFrame %v", i, got, batch[i], want)
				}
			}
			out, err := fr.Marshal()
			if err != nil {
				t.Fatalf("accepted data frame does not re-marshal: %v", err)
			}
			// NaN symbol payloads may be quieted by the float32↔float64
			// conversions, so byte equality is only demanded for real values.
			if !hasNaNSymbol(fr) && !bytes.Equal(out, data) {
				t.Fatalf("data frame round trip changed bytes:\n in: %x\nout: %x", data, out)
			}
			// Materializing through the view must round-trip identically too.
			if mat, err := view.Data().Marshal(); err != nil || (!hasNaNSymbol(fr) && !bytes.Equal(mat, data)) {
				t.Fatalf("view-materialized frame diverged (err %v):\n in: %x\nout: %x", err, data, mat)
			}
		case *AckFrame:
			if view.Kind != KindAck {
				t.Fatalf("in-place view kind %d for an ack", view.Kind)
			}
			// Copy the ack out of the view, then clobber the backing buffer:
			// the copy must be unaffected — the aliasing is confined to the
			// symbol payload, never to copied-out acks.
			ack := view.Ack()
			for i := range data {
				data[i] ^= 0xFF
			}
			if ack.FlowID != fr.FlowID || ack.MsgID != fr.MsgID || ack.Decoded != fr.Decoded {
				t.Fatalf("copied-out ack corrupted by buffer mutation: %+v vs %+v", ack, fr)
			}
			for i := range data {
				data[i] ^= 0xFF
			}
			if out := fr.Marshal(); !bytes.Equal(out, data) {
				t.Fatalf("ack frame round trip changed bytes:\n in: %x\nout: %x", data, out)
			}
		default:
			t.Fatalf("parser returned unexpected type %T", parsed)
		}
	})
}

// FuzzReceiverIngest drives arbitrary frame byte-sequences through the full
// ingest path — demux, flow/message tracking, decoder leasing, ack emission —
// not just the parser. Whatever the bytes, the receiver must neither panic
// nor leak a decoder lease: after Close, the pool reports zero outstanding.
func FuzzReceiverIngest(f *testing.F) {
	fuzzCfg := Config{K: 4, Seed: 42, BeamWidth: 4, DecodeWorkers: 1, MaxTracked: 4, MaxFlows: 4}
	// Seed corpus: real frames the receiver accepts (so coverage reaches the
	// decode path), an ack (ignored by receivers), and hostile shapes.
	if frames, err := EncodeFrames(fuzzCfg, 1, 1, []byte("fuzz ingest seed payload"), 8, 2, nil); err == nil {
		f.Add(frames[0], frames[len(frames)-1])
	}
	if frames, err := EncodeFrames(fuzzCfg, 2, 9, bytes.Repeat([]byte{0xA5}, 48), 4, 1, nil); err == nil {
		f.Add(frames[0], frames[0]) // duplicate delivery of one fragment
	}
	// A frame with a NaN sample, followed by its clean twin.
	if frames, err := EncodeFrames(fuzzCfg, 3, 4, []byte("nan sample"), 8, 1, nil); err == nil {
		if fr, err := ParseFrame(frames[0]); err == nil {
			df := fr.(*DataFrame)
			df.Symbols[0] = complex(math.NaN(), 0)
			if nan, err := df.Marshal(); err == nil {
				f.Add(nan, frames[0])
			}
		}
	}
	f.Add((&AckFrame{FlowID: 1, MsgID: 1, Decoded: true}).Marshal(), []byte{})
	f.Add([]byte{frameMagic, typeDataV1, 0xFF, 0xFF}, []byte{frameMagic})
	f.Add(bytes.Repeat([]byte{frameMagic}, dataHeaderLen), []byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, first, second []byte) {
		near, far, err := NewPipePair(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		defer far.Close()
		r, err := NewReceiver(near, fuzzCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Errors are fine — rejected frames are the common case — but the
		// receiver must stay usable for the next frame after each of them.
		_, _ = r.HandleFrame(first)
		_, _ = r.HandleFrame(second)
		_, _ = r.HandleFrames([][]byte{second, first, first})
		if err := r.Close(); err != nil {
			t.Fatalf("close after hostile ingest: %v", err)
		}
		if out := r.PoolStats().Outstanding; out != 0 {
			t.Fatalf("%d decoder leases leaked after hostile ingest", out)
		}
	})
}

// sameComplex is equality that treats NaN coordinates as equal to NaN, so
// hostile NaN payloads don't trip the comparison itself.
func sameComplex(a, b complex128) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}
