package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"os"
	"reflect"
	"testing"
	"time"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/link"
)

// optional lists the interfaces the link's receiver and sender pick code
// paths by; a wrapper must implement exactly those its inner value does.
var optionalTransport = map[string]reflect.Type{
	"PacketTransport":      reflect.TypeOf((*link.PacketTransport)(nil)).Elem(),
	"BatchTransport":       reflect.TypeOf((*link.BatchTransport)(nil)).Elem(),
	"BatchPacketTransport": reflect.TypeOf((*link.BatchPacketTransport)(nil)).Elem(),
}

var blockChannel = reflect.TypeOf((*channel.BlockChannel)(nil)).Elem()

func implemented(v any, ifaces map[string]reflect.Type) map[string]bool {
	got := map[string]bool{}
	for name, it := range ifaces {
		got[name] = reflect.TypeOf(v).Implements(it)
	}
	return got
}

// bareTransport implements only link.Transport.
type bareTransport struct{ link.Transport }

// scalarChannel implements only channel.SymbolChannel.
type scalarChannel struct{}

func (scalarChannel) Corrupt(x complex128) complex128 { return x }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	a, b, err := link.NewPipePair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	u, err := link.NewUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	tr := newTracer(0)
	for name, inner := range map[string]link.Transport{
		"pipe": b, "udp": u, "bare": bareTransport{a},
		"fault-wrapped udp": link.NewFaultTransport(u, link.FaultProfile{}, link.FaultProfile{}, 1),
	} {
		for _, receiverSide := range []bool{false, true} {
			want := implemented(inner, optionalTransport)
			got := implemented(wrapTransport(inner, tr, receiverSide), optionalTransport)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (receiver side %v): wrapper implements %v, inner %v", name, receiverSide, got, want)
			}
		}
	}

	spec, err := impair.Parse("awgn(snr=10)")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]channel.SymbolChannel{"impair pipeline": pl, "scalar": scalarChannel{}} {
		want := reflect.TypeOf(inner).Implements(blockChannel)
		if got := reflect.TypeOf(wrapChannel(inner, tr)).Implements(blockChannel); got != want {
			t.Errorf("%s: wrapper BlockChannel %v, inner %v", name, got, want)
		}
	}
}

// TestWrappedPipeRecordsSpans drives frames through a wrapped pipe pair and
// checks the tracer saw them, with the same bytes arriving.
func TestWrappedPipeRecordsSpans(t *testing.T) {
	a, b, err := link.NewPipePair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	tr := newTracer(100)
	tr.setWindow(time.Now(), 0, time.Hour)
	tx := wrapTransport(a, tr, false).(link.BatchTransport)
	rx := wrapTransport(b, tr, true).(link.BatchTransport)
	if n, err := tx.SendBatch([][]byte{[]byte("one"), []byte("two")}); err != nil || n != 2 {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	bufs := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	n, err := rx.ReceiveBatch(bufs, time.Second)
	if err != nil || n != 2 || string(bufs[0]) != "one" || string(bufs[1]) != "two" {
		t.Fatalf("ReceiveBatch = %d, %v, %q", n, err, bufs[:n])
	}
	if s := tr.sum(spanTxSend, ""); s.calls != 1 || s.items != 2 {
		t.Errorf("send spans: %+v", s)
	}
	if s := tr.sum(spanTxRecv, ""); s.calls != 1 || s.items != 2 {
		t.Errorf("receive spans: %+v", s)
	}
}

// fingerprint hashes everything the open loop replays: arrival times,
// flows, message ids, payload bytes and the impaired frame bytes.
func fingerprint(msgs []openMsg) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range msgs {
		for _, v := range []uint64{uint64(m.due), uint64(m.flow), uint64(m.msg)} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		h.Write(m.payload)
		for _, f := range m.frames {
			h.Write(f)
		}
	}
	return h.Sum64()
}

func TestInputsReplayFromSeed(t *testing.T) {
	fp := func(seed uint64) uint64 {
		msgs, err := fadingInputs(seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(msgs)
	}
	if a, b := fp(1), fp(1); a != b {
		t.Errorf("seed 1 gave two trace fingerprints: %x, %x", a, b)
	}
	if a, b := fp(1), fp(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same trace fingerprint %x", a)
	}
	if !reflect.DeepEqual(payloadFor(1, 2, 3, 32), payloadFor(1, 2, 3, 32)) ||
		reflect.DeepEqual(payloadFor(1, 2, 3, 32), payloadFor(2, 2, 3, 32)) {
		t.Error("closed-loop payloads must be a function of (seed, flow, msg)")
	}
}

func TestFadingTraceHitsOfferedRate(t *testing.T) {
	evs, due, err := fadingTrace(7, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := int(fadingFlows.params.RateMsgsPerS * (warmup + 4*time.Second).Seconds())
	if len(evs) != want || due[len(due)-1] != warmup+4*time.Second {
		t.Errorf("%d events ending at %v, want %d ending at %v", len(evs), due[len(due)-1], want, warmup+4*time.Second)
	}
}

func TestPayloadMismatchIsAViolation(t *testing.T) {
	r := newRxLoop(nil, func(flow, msg uint32) []byte { return []byte{1, 2, 3} })
	err := r.verify(&link.Delivered{FlowID: 1, MsgID: 1, Payload: []byte{1, 2, 4}})
	var v violation
	if !errors.As(err, &v) {
		t.Fatalf("verify of a wrong payload = %v, want a violation", err)
	}
	if err := r.verify(&link.Delivered{FlowID: 1, MsgID: 2, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := r.verify(&link.Delivered{FlowID: 1, MsgID: 2, Payload: []byte{1, 2, 3}}); err != nil || r.dups != 1 {
		t.Fatalf("duplicate delivery: err %v, dups %d", err, r.dups)
	}
}

func TestMsgSetAndHistogram(t *testing.T) {
	acked, seen := msgSet{}, msgSet{}
	for _, m := range []uint32{1, 63, 64, 200} {
		acked.add(3, m)
		seen.add(3, m)
	}
	if _, _, missing := acked.missing(seen); missing {
		t.Error("equal sets reported a missing key")
	}
	acked.add(4, 9)
	if f, m, missing := acked.missing(seen); !missing || f != 4 || m != 9 {
		t.Errorf("missing = %d/%d/%v, want 4/9/true", f, m, missing)
	}

	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := q*999/1000 + 0.001 // ms
		if got := h.quantileMs(q); got < exact*(1-1.0/64) || got > exact*(1+1.0/64) {
			t.Errorf("q%.2f = %.4f ms, want %.4f within 1/64", q, got, exact)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// describing the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Why, Unit, Better string }
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q: %q, program %q: %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}

	ph := &phaseResult{measure: subWindows * time.Second, load: newLoadStats(subWindows * time.Second)}
	for k := 0; k <= subWindows; k++ {
		ph.edges = append(ph.edges, procSample{cpu: time.Duration(k) * time.Millisecond, allocs: uint64(k)})
	}
	ph.load.add(msgRecord{flow: 1, msg: 1, at: warmup, latency: time.Millisecond, bytes: 4, symbols: 8, ok: true})
	e2e := endToEnd(ph)
	e2e["setup_s"] = metric{1, "s"}
	if len(bj.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(e2e))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program has %v", m.Name, m.Unit, got)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if m := bj.PerLayer[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, lm)
		}
	}
}
