package link

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format. All integers are big-endian.
//
//	byte 0: magic (0xA5)
//	byte 1: frame type (3 = data, 4 = ack)
//	bytes 2-5: flow id, the sender's identity
//	bytes 6-9: message id
//
// The flow id lets many logical flows share one receiver and one transport
// socket: (flow, message) is the demux key. Data frames then carry
// everything the receiver needs to decode statelessly: code parameters, the
// schedule, the index of the first symbol in the frame and the symbol
// samples as float32 I/Q pairs. Acks end with a status byte (1 = decoded,
// 0 = negative/shed). Any other type byte is rejected.
const (
	frameMagic byte = 0xA5
	typeDataV1 byte = 3
	typeAckV1  byte = 4

	// ScheduleSequential and ScheduleStriped8 identify the transmission
	// schedules supported on the wire.
	ScheduleSequential uint8 = 0
	ScheduleStriped8   uint8 = 1
)

// FrameV1 is the flow-multiplexed wire format, the only one spoken.
const FrameV1 uint8 = 1

// dataHeaderLen is the number of bytes before the symbol samples in a data
// frame; ackLen is the length of an ack frame.
const (
	dataHeaderLen = 2 + 4 + 4 + 4 + 1 + 1 + 1 + 8 + 4 + 2
	ackLen        = 2 + 4 + 4 + 1
)

// MaxSymbolsPerFrame is the largest number of symbols a single data frame
// can carry within the transport frame-size limit.
const MaxSymbolsPerFrame = (maxFrameSize - dataHeaderLen) / 8

// DataFrame is one burst of coded symbols for a message.
type DataFrame struct {
	// Version must be FrameV1; ParseFrame sets it.
	Version uint8
	// FlowID identifies the sender; (FlowID, MsgID) is the demux key at a
	// multi-flow receiver.
	FlowID      uint32
	MsgID       uint32
	MessageBits uint32
	K           uint8
	C           uint8
	Schedule    uint8
	Seed        uint64
	StartIndex  uint32
	Symbols     []complex128
}

// AckFrame is the receiver's feedback for a message. Decoded=false is a
// negative acknowledgement: the receiver sends it when it sheds a flow
// under admission control, telling the sender to stop transmitting.
type AckFrame struct {
	FlowID  uint32
	MsgID   uint32
	Decoded bool
}

// AppendTo appends the frame's wire encoding to dst and returns the extended
// slice. It is the hot-path marshal: appending into a leased arena buffer
// produces a frame with no allocation at all once the buffer is warm.
func (f *DataFrame) AppendTo(dst []byte) ([]byte, error) {
	if len(f.Symbols) == 0 {
		return nil, fmt.Errorf("link: data frame with no symbols")
	}
	if len(f.Symbols) > MaxSymbolsPerFrame {
		return nil, fmt.Errorf("link: %d symbols exceed the per-frame limit %d", len(f.Symbols), MaxSymbolsPerFrame)
	}
	if f.Version != FrameV1 {
		return nil, fmt.Errorf("link: unknown frame version %d", f.Version)
	}
	dst = append(dst, frameMagic, typeDataV1)
	dst = binary.BigEndian.AppendUint32(dst, f.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, f.MsgID)
	dst = binary.BigEndian.AppendUint32(dst, f.MessageBits)
	dst = append(dst, f.K, f.C, f.Schedule)
	dst = binary.BigEndian.AppendUint64(dst, f.Seed)
	dst = binary.BigEndian.AppendUint32(dst, f.StartIndex)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Symbols)))
	for _, s := range f.Symbols {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(real(s))))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(imag(s))))
	}
	return dst, nil
}

// Marshal serializes the data frame. It is a thin allocating wrapper over
// AppendTo, kept for tests and cold paths; hot paths append into leased
// buffers instead.
func (f *DataFrame) Marshal() ([]byte, error) {
	return f.AppendTo(make([]byte, 0, dataHeaderLen+8*len(f.Symbols)))
}

// AppendTo appends the ack's wire encoding to dst and returns the extended
// slice — the allocation-free counterpart of Marshal for the per-frame ack
// path.
func (f *AckFrame) AppendTo(dst []byte) []byte {
	dst = append(dst, frameMagic, typeAckV1)
	dst = binary.BigEndian.AppendUint32(dst, f.FlowID)
	dst = binary.BigEndian.AppendUint32(dst, f.MsgID)
	if f.Decoded {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Marshal serializes the ack frame.
func (f *AckFrame) Marshal() []byte {
	return f.AppendTo(make([]byte, 0, ackLen))
}

// FrameKind discriminates the two frame families a FrameView can hold.
type FrameKind uint8

const (
	// KindData marks a view over a data frame.
	KindData FrameKind = 1
	// KindAck marks a view over an ack frame.
	KindAck FrameKind = 2
)

// FrameView is a zero-copy decoded frame: the fixed header fields are copied
// out of the input buffer, but a data frame's symbol payload is NOT — the
// view aliases it in place, and SymbolsInto decodes the float32 I/Q pairs
// straight into a caller-owned destination (typically the receiver's scratch
// batch). The view is therefore only valid while the backing buffer is; once
// the buffer is released or reused the symbol accessors read garbage. Ack
// fields are fully copied out (an ack has no payload), so Ack() survives the
// buffer — the aliasing fuzz test pins both contracts.
//
// A zero view is invalid; populate it with UnmarshalFrameInPlace. Views are
// meant to be reused across frames: unmarshaling overwrites every field and
// performs no allocation.
type FrameView struct {
	Kind   FrameKind
	FlowID uint32
	MsgID  uint32

	// Data-frame fields (zero for acks).
	MessageBits uint32
	K           uint8
	C           uint8
	Schedule    uint8
	Seed        uint64
	StartIndex  uint32
	// NumSymbols is the symbol count of a data frame; the samples themselves
	// stay in the backing buffer (sym) until SymbolsInto extracts them.
	NumSymbols int
	sym        []byte

	// Decoded is the ack status (acks only).
	Decoded bool
}

// UnmarshalFrameInPlace parses one raw frame into v without copying the
// symbol payload: v's symbol accessors alias buf. It accepts exactly the
// frames ParseFrame accepts and performs no allocation on any path that
// returns nil.
func UnmarshalFrameInPlace(buf []byte, v *FrameView) error {
	if len(buf) < 2 {
		return fmt.Errorf("link: frame too short (%d bytes)", len(buf))
	}
	if len(buf) > maxFrameSize {
		return fmt.Errorf("link: frame of %d bytes exceeds limit %d", len(buf), maxFrameSize)
	}
	if buf[0] != frameMagic {
		return fmt.Errorf("link: bad frame magic %#x", buf[0])
	}
	switch buf[1] {
	case typeDataV1:
		return v.unmarshalData(buf)
	case typeAckV1:
		return v.unmarshalAck(buf)
	default:
		return fmt.Errorf("link: unknown frame type %d", buf[1])
	}
}

func (v *FrameView) unmarshalData(buf []byte) error {
	if len(buf) < dataHeaderLen {
		return fmt.Errorf("link: data frame header truncated (%d bytes)", len(buf))
	}
	count := int(binary.BigEndian.Uint16(buf[29:]))
	if count == 0 {
		return fmt.Errorf("link: data frame with zero symbols")
	}
	if len(buf) != dataHeaderLen+8*count {
		return fmt.Errorf("link: data frame length %d does not match %d symbols", len(buf), count)
	}
	*v = FrameView{
		Kind:        KindData,
		FlowID:      binary.BigEndian.Uint32(buf[2:]),
		MsgID:       binary.BigEndian.Uint32(buf[6:]),
		MessageBits: binary.BigEndian.Uint32(buf[10:]),
		K:           buf[14],
		C:           buf[15],
		Schedule:    buf[16],
		Seed:        binary.BigEndian.Uint64(buf[17:]),
		StartIndex:  binary.BigEndian.Uint32(buf[25:]),
		NumSymbols:  count,
		sym:         buf[dataHeaderLen:],
	}
	return nil
}

func (v *FrameView) unmarshalAck(buf []byte) error {
	if len(buf) != ackLen {
		return fmt.Errorf("link: ack frame has %d bytes, want %d", len(buf), ackLen)
	}
	if buf[10] > 1 {
		return fmt.Errorf("link: ack status byte %d invalid", buf[10])
	}
	*v = FrameView{
		Kind:    KindAck,
		FlowID:  binary.BigEndian.Uint32(buf[2:]),
		MsgID:   binary.BigEndian.Uint32(buf[6:]),
		Decoded: buf[10] == 1,
	}
	return nil
}

// SymbolsInto decodes the data frame's float32 I/Q pairs from the backing
// buffer into dst, which must hold at least NumSymbols entries. It is the
// single conversion the zero-copy ingest path performs: wire bytes become
// observation values with no intermediate slice.
func (v *FrameView) SymbolsInto(dst []complex128) {
	if v.Kind != KindData {
		panic("link: SymbolsInto on a non-data frame view")
	}
	_ = dst[v.NumSymbols-1]
	for i := 0; i < v.NumSymbols; i++ {
		re := math.Float32frombits(binary.BigEndian.Uint32(v.sym[8*i:]))
		im := math.Float32frombits(binary.BigEndian.Uint32(v.sym[8*i+4:]))
		dst[i] = complex(float64(re), float64(im))
	}
}

// symbolsFinite reports whether every float32 coordinate of the data frame's
// symbols is finite: a float32 is NaN or infinite exactly when its exponent
// bits are all ones.
func (v *FrameView) symbolsFinite() bool {
	const exp = 0x7f800000
	for i := 0; i+4 <= len(v.sym); i += 4 {
		if binary.BigEndian.Uint32(v.sym[i:])&exp == exp {
			return false
		}
	}
	return true
}

// SymbolAt decodes the i-th symbol of a data frame view.
func (v *FrameView) SymbolAt(i int) complex128 {
	if v.Kind != KindData {
		panic("link: SymbolAt on a non-data frame view")
	}
	re := math.Float32frombits(binary.BigEndian.Uint32(v.sym[8*i:]))
	im := math.Float32frombits(binary.BigEndian.Uint32(v.sym[8*i+4:]))
	return complex(float64(re), float64(im))
}

// Ack copies the view out as an AckFrame. The copy is independent of the
// backing buffer: mutating the buffer afterwards must not change it.
func (v *FrameView) Ack() AckFrame {
	if v.Kind != KindAck {
		panic("link: Ack on a non-ack frame view")
	}
	return AckFrame{FlowID: v.FlowID, MsgID: v.MsgID, Decoded: v.Decoded}
}

// Data materializes the view as an allocating *DataFrame with its own symbol
// slice — the compatibility bridge from the zero-copy path back to the
// original parse API.
func (v *FrameView) Data() *DataFrame {
	if v.Kind != KindData {
		panic("link: Data on a non-data frame view")
	}
	f := &DataFrame{
		Version:     FrameV1,
		FlowID:      v.FlowID,
		MsgID:       v.MsgID,
		MessageBits: v.MessageBits,
		K:           v.K,
		C:           v.C,
		Schedule:    v.Schedule,
		Seed:        v.Seed,
		StartIndex:  v.StartIndex,
		Symbols:     make([]complex128, v.NumSymbols),
	}
	v.SymbolsInto(f.Symbols)
	return f
}

// ParseFrame decodes a received frame into either *DataFrame or *AckFrame.
// It is the allocating wrapper over UnmarshalFrameInPlace — one parser, two
// calling conventions — kept for tests, tools and the sender's ack path,
// where a copied-out frame is the right shape.
func ParseFrame(buf []byte) (interface{}, error) {
	var v FrameView
	if err := UnmarshalFrameInPlace(buf, &v); err != nil {
		return nil, err
	}
	if v.Kind == KindData {
		return v.Data(), nil
	}
	ack := v.Ack()
	return &ack, nil
}
