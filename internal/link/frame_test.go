package link

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDataFrameRoundTrip(t *testing.T) {
	f := &DataFrame{
		Version:     FrameV1,
		MsgID:       42,
		MessageBits: 288,
		K:           8,
		C:           10,
		Schedule:    ScheduleStriped8,
		Seed:        0xfeedface,
		StartIndex:  96,
		Symbols:     []complex128{1 + 2i, -0.25 - 0.75i, 0},
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parsed.(*DataFrame)
	if !ok {
		t.Fatalf("parsed wrong type %T", parsed)
	}
	if got.MsgID != f.MsgID || got.MessageBits != f.MessageBits || got.K != f.K ||
		got.C != f.C || got.Schedule != f.Schedule || got.Seed != f.Seed || got.StartIndex != f.StartIndex {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Symbols) != len(f.Symbols) {
		t.Fatalf("symbol count mismatch")
	}
	for i := range f.Symbols {
		if math.Abs(real(got.Symbols[i])-real(f.Symbols[i])) > 1e-6 ||
			math.Abs(imag(got.Symbols[i])-imag(f.Symbols[i])) > 1e-6 {
			t.Fatalf("symbol %d mismatch: %v vs %v", i, got.Symbols[i], f.Symbols[i])
		}
	}
}

func TestDataFrameRoundTripProperty(t *testing.T) {
	prop := func(msgID uint32, bits uint16, start uint16, re, im float32) bool {
		f := &DataFrame{
			Version:     FrameV1,
			MsgID:       msgID,
			MessageBits: uint32(bits) + 1,
			K:           8,
			C:           10,
			Schedule:    ScheduleSequential,
			Seed:        1,
			StartIndex:  uint32(start),
			Symbols:     []complex128{complex(float64(re), float64(im))},
		}
		if math.IsNaN(float64(re)) || math.IsNaN(float64(im)) {
			return true
		}
		buf, err := f.Marshal()
		if err != nil {
			return false
		}
		parsed, err := ParseFrame(buf)
		if err != nil {
			return false
		}
		got := parsed.(*DataFrame)
		return got.MsgID == f.MsgID && got.StartIndex == f.StartIndex &&
			math.Abs(real(got.Symbols[0])-float64(re)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDataFrameV1RoundTrip(t *testing.T) {
	f := &DataFrame{
		Version:     FrameV1,
		FlowID:      0xDEAD0001,
		MsgID:       42,
		MessageBits: 288,
		K:           8,
		C:           10,
		Schedule:    ScheduleStriped8,
		Seed:        0xfeedface,
		StartIndex:  96,
		Symbols:     []complex128{1 + 2i, -0.25 - 0.75i},
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parsed.(*DataFrame)
	if !ok {
		t.Fatalf("parsed wrong type %T", parsed)
	}
	if got.Version != FrameV1 || got.FlowID != f.FlowID || got.MsgID != f.MsgID ||
		got.MessageBits != f.MessageBits || got.K != f.K || got.C != f.C ||
		got.Schedule != f.Schedule || got.Seed != f.Seed || got.StartIndex != f.StartIndex {
		t.Fatalf("v1 header mismatch: %+v", got)
	}
	if len(got.Symbols) != 2 {
		t.Fatalf("symbol count mismatch")
	}
}

func TestAckFrameV1RoundTrip(t *testing.T) {
	for _, decoded := range []bool{true, false} {
		a := &AckFrame{FlowID: 77, MsgID: 7, Decoded: decoded}
		parsed, err := ParseFrame(a.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parsed.(*AckFrame)
		if !ok {
			t.Fatalf("wrong type %T", parsed)
		}
		if got.FlowID != 77 || got.MsgID != 7 || got.Decoded != decoded {
			t.Fatalf("v1 ack mismatch: %+v", got)
		}
	}
}

// retiredV0Frames returns a well-formed data frame and ack of the retired
// flow-less wire generation: type bytes 1 and 2, the current layout without
// the flow id. Both must be rejected as unknown frame types.
func retiredV0Frames() (data, ack []byte) {
	d := &DataFrame{
		Version: FrameV1, MsgID: 7, MessageBits: 64, K: 8, C: 10,
		Schedule: ScheduleStriped8, Seed: 42, StartIndex: 16,
		Symbols: []complex128{1 + 1i, -2 - 0.5i},
	}
	buf, err := d.Marshal()
	if err != nil {
		panic(err)
	}
	dropFlow := func(frame []byte, typ byte) []byte {
		return append([]byte{frameMagic, typ}, frame[6:]...)
	}
	return dropFlow(buf, 1), dropFlow((&AckFrame{MsgID: 3, Decoded: true}).Marshal(), 2)
}

func TestParseFrameRejectsOversize(t *testing.T) {
	huge := make([]byte, maxFrameSize+1)
	huge[0] = frameMagic
	huge[1] = typeDataV1
	if _, err := ParseFrame(huge); err == nil {
		t.Error("frame above the transport limit accepted")
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	for _, decoded := range []bool{true, false} {
		a := &AckFrame{MsgID: 7, Decoded: decoded}
		parsed, err := ParseFrame(a.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parsed.(*AckFrame)
		if !ok {
			t.Fatalf("wrong type %T", parsed)
		}
		if got.MsgID != 7 || got.Decoded != decoded {
			t.Fatalf("ack mismatch: %+v", got)
		}
	}
}

func TestParseFrameRejectsGarbage(t *testing.T) {
	v0data, v0ack := retiredV0Frames()
	cases := [][]byte{
		nil,
		{0x00},
		{0x00, 0x01, 0x02},             // bad magic
		{frameMagic, 0x09, 0, 0, 0},    // unknown type
		{frameMagic, typeAckV1, 0, 0},  // short ack
		{frameMagic, typeDataV1, 1, 2}, // truncated data header
		v0data,                         // retired type 1
		v0ack,                          // retired type 2
	}
	for i, c := range cases {
		if _, err := ParseFrame(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestParseDataFrameLengthMismatch(t *testing.T) {
	f := &DataFrame{Version: FrameV1, MsgID: 1, MessageBits: 32, K: 8, C: 10, Seed: 1, Symbols: []complex128{1}}
	buf, _ := f.Marshal()
	if _, err := ParseFrame(buf[:len(buf)-3]); err == nil {
		t.Error("truncated symbol payload accepted")
	}
}

func TestMarshalLimits(t *testing.T) {
	f := &DataFrame{Version: FrameV1, MsgID: 1, MessageBits: 32, K: 8, C: 10, Seed: 1}
	if _, err := f.Marshal(); err == nil {
		t.Error("empty symbol list accepted")
	}
	for _, version := range []uint8{0, 2, 9} {
		bad := *f
		bad.Version = version
		bad.Symbols = []complex128{1}
		if _, err := bad.Marshal(); err == nil {
			t.Errorf("frame version %d accepted", version)
		}
	}
	f.Symbols = make([]complex128, MaxSymbolsPerFrame+1)
	if _, err := f.Marshal(); err == nil {
		t.Error("oversize frame accepted")
	}
	f.Symbols = make([]complex128, MaxSymbolsPerFrame)
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > maxFrameSize {
		t.Fatalf("marshalled frame of %d bytes exceeds transport limit", len(buf))
	}
}
