// Command spinalrecv is the receiving half of the rateless spinal link over
// UDP. It binds a local UDP port, simulates the radio by passing every
// received symbol through an AWGN channel at the configured SNR (plus a
// 14-bit ADC) — or through a declarative impairment pipeline when -impair is
// set, optionally with frame-level faults via -fault — decodes arriving
// packets with the spinal beam decoder, and acknowledges each packet as soon
// as its CRC verifies.
//
// One spinalrecv serves many concurrent spinalsend processes over its
// single UDP socket: frames are demultiplexed by the flow id each sender
// carries, acks are routed back to each sender's own source address, flows
// share one decoder pool and one decode-worker pool, and admission control
// (-max-flows, -max-tracked) bounds the state a burst of senders can pin.
//
// Run it together with cmd/spinalsend, for example:
//
//	spinalrecv -listen 127.0.0.1:9700 -snr 12 &
//	spinalsend -to 127.0.0.1:9700 -text "hello from sender A" &
//	spinalsend -to 127.0.0.1:9700 -text "hello from sender B" &
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"spinal/internal/channel"
	"spinal/internal/core"
	"spinal/internal/impair"
	"spinal/internal/link"
	"spinal/internal/rng"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9700", "UDP address to bind")
	snr := flag.Float64("snr", 15, "simulated radio SNR in dB")
	adc := flag.Int("adc", 14, "simulated receiver ADC bits per dimension")
	beam := flag.Int("beam", 16, "decoder beam width B")
	workers := flag.Int("workers", 0,
		"decode worker pool size: how many distinct in-flight packets decode concurrently (0 = GOMAXPROCS)")
	count := flag.Int("count", 0, "exit after this many packets (0 = run forever)")
	seed := flag.Uint64("noise-seed", 1, "seed for the simulated radio noise")
	maxFlows := flag.Int("max-flows", 0,
		"cap on concurrently tracked flows; the oldest flow is shed (and NACKed) beyond it (0 = default)")
	maxTracked := flag.Int("max-tracked", 0, "cap on tracked messages across all flows (0 = default)")
	idleExpiry := flag.Duration("idle-expiry", 0,
		"expire flows with no frame for this long, NACKing their in-flight packets (0 = never)")
	budget := flag.Int64("budget", 0,
		"per-flow decode budget: how far ahead of the least-spent flow (in decode nodes) a flow may run before its attempts are deferred (0 = off)")
	stats := flag.Duration("stats", 0,
		"emit a JSON engine-stats line to stderr at this interval (0 = off)")
	search := flag.String("search", "",
		"decoder search strategy: exact|approx (empty = exact)")
	adaptive := flag.Bool("adaptive-search", false,
		"pick each flow's search strategy from its decode-budget pressure (requires -budget); -search sets the unpressured base")
	impairSpec := flag.String("impair", "",
		"impairment-pipeline spec replacing the AWGN radio, e.g. \"ge(good=16,bad=3)|spike(prob=0.02)|erase(p=0.01)\" or its JSON form")
	faultSpec := flag.String("fault", "",
		"frame-level fault profile applied to received frames, e.g. \"drop=0.05,reorder=0.1,depth=4\" or the JSON form of link.FaultProfile")
	flag.Parse()

	if err := serve(*listen, *snr, *adc, *beam, *workers, *count, *seed,
		*maxFlows, *maxTracked, *idleExpiry, *budget, *stats,
		*search, *adaptive, *impairSpec, *faultSpec); err != nil {
		fmt.Fprintln(os.Stderr, "spinalrecv:", err)
		os.Exit(1)
	}
}

func serve(listen string, snr float64, adc, beam, workers, count int, seed uint64,
	maxFlows, maxTracked int, idleExpiry time.Duration, budget int64, statsEvery time.Duration,
	search string, adaptive bool, impairSpec, faultSpec string) error {
	searchMode, err := core.ParseSearchMode(search)
	if err != nil {
		return err
	}
	// One UDP socket serves every flow; on Linux the receiver drains it in
	// recvmmsg batches.
	udp, err := link.NewUDP(listen, "")
	if err != nil {
		return err
	}
	defer udp.Close()

	// The simulated radio: AWGN plus ADC by default, or a declarative
	// impairment pipeline when -impair is set. Either way the receiver sees a
	// channel.SymbolChannel consuming one deterministic noise stream.
	var radio channel.SymbolChannel
	radioDesc := fmt.Sprintf("a %.1f dB channel", snr)
	if impairSpec != "" {
		spec, err := impair.ParseAny(impairSpec)
		if err != nil {
			return err
		}
		pl, err := spec.Build(seed)
		if err != nil {
			return err
		}
		radio = pl
		radioDesc = pl.Name()
	} else {
		q, err := impair.NewQuantizedAWGN(snr, adc, rng.New(seed))
		if err != nil {
			return err
		}
		radio = q
	}
	// Frame-level faults wrap the transport the receiver reads from; the
	// wrapper keeps the socket's batch and per-peer capabilities, so ingest
	// still runs in batches with acks routed to each sender.
	var recvTr link.Transport = udp
	if faultSpec != "" {
		profile, err := link.ParseFaultProfile(faultSpec)
		if err != nil {
			return err
		}
		recvTr = link.NewFaultTransport(udp, link.FaultProfile{}, profile, seed^0x1f83d9abfb41bd6b)
	}
	recv, err := link.NewReceiver(recvTr, link.Config{
		BeamWidth:        beam,
		DecodeWorkers:    workers,
		MaxFlows:         maxFlows,
		MaxTracked:       maxTracked,
		IdleExpiry:       idleExpiry,
		FlowDecodeBudget: budget,
		Search:           searchMode,
		AdaptiveSearch:   adaptive,
	}, radio)
	if err != nil {
		return err
	}
	defer recv.Close()
	fmt.Printf("spinalrecv: listening on %s, simulating %s, serving multiplexed flows\n",
		udp.LocalAddr(), radioDesc)

	// Stats lines come from this goroutine — the one driving Receive — which
	// is the EngineStats contract; no ticker goroutine races the engine.
	enc := json.NewEncoder(os.Stderr)
	nextStats := time.Now().Add(statsEvery)
	emitStats := func() {
		if statsEvery <= 0 || time.Now().Before(nextStats) {
			return
		}
		nextStats = time.Now().Add(statsEvery)
		_ = enc.Encode(recv.EngineStats())
	}
	slice := time.Second
	if statsEvery > 0 && statsEvery < slice {
		slice = statsEvery
	}
	delivered := 0
	for count == 0 || delivered < count {
		d, err := recv.Receive(slice)
		emitStats()
		if errors.Is(err, link.ErrTimeout) {
			continue
		}
		if err != nil {
			return err
		}
		delivered++
		rate := float64(len(d.Payload)*8) / float64(d.Symbols)
		fmt.Printf("flow %d packet %d: %d bytes in %d symbols (%.2f bits/symbol): %q\n",
			d.FlowID, d.MsgID, len(d.Payload), d.Symbols, rate, truncate(string(d.Payload), 60))
	}
	stats := recv.PoolStats()
	fmt.Printf("spinalrecv: served %d packets across %d tracked flows (decoder pool: %d hits, %d misses, %d shed flows)\n",
		delivered, recv.TrackedFlows(), stats.Hits, stats.Misses, recv.ShedFlows())
	if es := recv.EngineStats(); es.DecodeAttempts > 0 {
		fmt.Printf("spinalrecv: %d decode attempts (%d held back by the decode threshold, %d new messages started at a learned threshold), search attempts by mode %v, ~%d tree expansions saved by approximate search\n",
			es.DecodeAttempts, es.DecodeSkips, es.DecodeThresholded, es.SearchAttempts, es.NodesSaved)
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
