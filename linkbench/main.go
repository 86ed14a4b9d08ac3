// Command linkbench is the repository's end-to-end link benchmark. It drives
// the real rateless link — link.Sender, a transport, link.Receiver with its
// decoder pool and decode workers, and the acks back — under three named
// workloads, checks every delivered payload, and prints the end-to-end
// metrics (-trace 0) or, from a separate traced run, per-layer metrics and a
// CPU reconciliation table (-trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root with linkbench/run.sh, which builds it:
//
//	bash linkbench/run.sh --workload awgn-link --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"spinal/internal/link"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: awgn-link, fading-flows or tiny-udp")
	seed := fs.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "linkbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	measure := time.Duration(*seconds) * time.Second

	record := map[string]any{"workload": w.name, "why": w.why, "seed": *seed, "seconds": *seconds,
		"traced": *traced == 1, "host": newHostInfo(w.transport), "params": w.params}
	line, _ := json.Marshal(record)
	fmt.Fprintf(stdout, "run %s\n", line)

	var res *result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, measure, stdout)
	} else {
		res, err = plainRun(w, *seed, measure, stdout)
	}
	var v violation
	if errors.As(err, &v) {
		fmt.Fprintln(stderr, "linkbench:", err)
		out, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		fmt.Fprintf(stdout, "%s\n", out)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "linkbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "linkbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// plainRun is the untraced run: set up several times (setup_s is the
// median), then measure the last instance.
func plainRun(w *workload, seed uint64, measure time.Duration, stdout io.Writer) (*result, error) {
	var setups []float64
	var in *instance
	for i := 0; i < w.setups; i++ {
		if in != nil {
			// Tear the previous set-up down first, so the peak RSS is one
			// instance's, not two.
			if err := in.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if in, err = w.build(seed, measure, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC() // start the measured phase without the set-ups' garbage
	ph, err := runPhase(in, measure, nil)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	printSteal(stdout, ph)
	m := endToEnd(ph)
	m["setup_s"] = metric{median(setups), "s"}
	return ph.result(m), nil
}

// tracedRun measures the workload twice from fresh set-ups with the same
// seed, each for half the window: once bare, for the overhead baseline, and
// once with every seam wrapped. The per-layer metrics come from the second.
func tracedRun(w *workload, seed uint64, measure time.Duration, stdout io.Writer) (*result, error) {
	half := measure / 2
	bare, err := w.build(seed, half, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := runPhase(bare, half, nil)
	if cerr := bare.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	runtime.GC()

	t := newTracer(100000)
	in, err := w.build(seed, half, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph, err := runPhase(in, half, t)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cost, err := replay(in.replay, ph.replayCases(in))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	m, ledger := perLayer(w, ph, base, t, cost)
	if len(m) != len(layerMetrics) {
		return nil, fmt.Errorf("traced run computed %d per-layer metrics, layerMetrics lists %d", len(m), len(layerMetrics))
	}
	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", lm.name)
		}
	}
	printSteal(stdout, base)
	printSteal(stdout, ph)
	printLedger(stdout, w, ph, ledger)
	path := fmt.Sprintf(".bench_build/trace/%s-seed%d.tsv", w.name, seed)
	n, err := t.writeSpans(path)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d of %d written to %s\n", n, t.stored.Load(), path)
	return ph.result(m), nil
}

// ---- receive loop --------------------------------------------------------------

// delivery is one verified first delivery at the receiver, kept for the
// replay pass.
type delivery struct {
	flow, msg uint32
	symbols   int
}

// replaySample is how many of the window's deliveries the replay pass
// re-runs.
const replaySample = 64

// rxLoop is the goroutine that drives (*link.Receiver).Receive, verifies
// each delivery and serves engine-stats snapshots, which must be taken on
// that goroutine.
type rxLoop struct {
	recv   *link.Receiver
	expect func(flow, msg uint32) []byte
	stop   chan struct{}
	snaps  chan chan link.EngineStats
	done   chan struct{}
	win    [2]time.Time // measured window, set before the loop starts

	// Owned by the loop goroutine until done is closed.
	seen   msgSet
	inWin  int   // first deliveries inside the window
	nodes  int64 // nodes expanded for them
	sample []delivery
	dups   int
	err    error
}

func newRxLoop(recv *link.Receiver, expect func(flow, msg uint32) []byte) *rxLoop {
	return &rxLoop{recv: recv, expect: expect, stop: make(chan struct{}),
		snaps: make(chan chan link.EngineStats), done: make(chan struct{}), seen: msgSet{}}
}

// rxSlice bounds how long a snapshot request waits; rxDrain is the quiet
// time after the load stops that ends the loop, long enough for any decode
// attempt still in flight to deliver.
const (
	rxSlice = 10 * time.Millisecond
	rxDrain = 300 * time.Millisecond
)

func (r *rxLoop) run(t *tracer) {
	defer close(r.done)
	l := t.lockLane("receiver")
	defer t.unlockLane(l)
	timeout := rxSlice
	for {
		select {
		case <-r.stop:
			timeout = rxDrain
		case reply := <-r.snaps:
			reply <- r.recv.EngineStats()
		default:
		}
		tok := t.begin(spanReceive)
		d, err := r.recv.Receive(timeout)
		if d != nil {
			t.end(tok, 1, d.FlowID, d.MsgID)
		} else {
			t.end(tok, 0, 0, 0)
		}
		switch {
		case errors.Is(err, link.ErrTimeout):
			if timeout == rxDrain {
				return
			}
		case err != nil:
			r.err = err
			return
		default:
			if r.err = r.verify(d); r.err != nil {
				return
			}
		}
	}
}

// verify checks a delivery byte for byte against the generated payload and
// records it once; a duplicate delivery must match too but counts once.
func (r *rxLoop) verify(d *link.Delivered) error {
	want := r.expect(d.FlowID, d.MsgID)
	if want == nil || !bytes.Equal(d.Payload, want) {
		return violation{fmt.Sprintf("flow %d msg %d delivered a payload that was not sent", d.FlowID, d.MsgID)}
	}
	if r.seen.has(d.FlowID, d.MsgID) {
		r.dups++
		return nil
	}
	r.seen.add(d.FlowID, d.MsgID)
	if now := time.Now(); !now.Before(r.win[0]) && now.Before(r.win[1]) {
		r.inWin++
		r.nodes += r.recv.FlowNodesExpanded(d.FlowID, d.MsgID)
		if len(r.sample) < replaySample {
			r.sample = append(r.sample, delivery{flow: d.FlowID, msg: d.MsgID, symbols: d.Symbols})
		}
	}
	return nil
}

func (r *rxLoop) snapshot() (link.EngineStats, error) {
	reply := make(chan link.EngineStats, 1)
	select {
	case r.snaps <- reply:
		return <-reply, nil
	case <-r.done:
		return link.EngineStats{}, fmt.Errorf("receive loop ended early")
	}
}

// ---- one measured phase ---------------------------------------------------------

type phaseResult struct {
	measure time.Duration
	load    *loadStats
	edges   []procSample // process counters at the sub-window edges
	e0, e1  link.EngineStats
	rxInWin int   // receiver's first deliveries inside the window
	rxNodes int64 // decode nodes expanded for them
	sample  []delivery
	dups    int
	peakRSS float64
}

// runPhase starts the receive loop and the load, samples the process and
// the engine at the window's edges, drains, and checks that every message
// the load saw acknowledged was delivered and verified.
func runPhase(in *instance, measure time.Duration, t *tracer) (*phaseResult, error) {
	p := plan{epoch: time.Now(), measure: measure}
	t.setWindow(p.epoch, warmup, warmup+measure)
	in.rx.win = [2]time.Time{p.start(), p.end()}
	go in.rx.run(t)
	var load *loadStats
	var loadErr error
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		load, loadErr = in.drive(p, t)
	}()
	ph := &phaseResult{measure: measure}
	var snapErr error
	if waitUntil(p.start(), loadDone) {
		ph.edges = append(ph.edges, sampleProcess())
		ph.e0, snapErr = in.rx.snapshot()
		for k := 1; k <= subWindows && snapErr == nil; k++ {
			if !waitUntil(p.start().Add(measure*time.Duration(k)/subWindows), loadDone) {
				break
			}
			ph.edges = append(ph.edges, sampleProcess())
		}
		if snapErr == nil && len(ph.edges) == subWindows+1 {
			ph.e1, snapErr = in.rx.snapshot()
		}
	}
	<-loadDone
	close(in.rx.stop)
	<-in.rx.done
	switch {
	case in.rx.err != nil:
		return nil, in.rx.err
	case loadErr != nil:
		return nil, loadErr
	case snapErr != nil:
		return nil, snapErr
	case len(ph.edges) != subWindows+1:
		return nil, fmt.Errorf("load ended before the measured window closed")
	}
	ph.peakRSS = peakRSSMB()
	ph.load = load
	ph.dups = in.rx.dups
	if flow, msg, missing := load.acked.missing(in.rx.seen); missing {
		return nil, violation{fmt.Sprintf("flow %d msg %d acknowledged but never delivered", flow, msg)}
	}
	ph.rxInWin, ph.rxNodes, ph.sample = in.rx.inWin, in.rx.nodes, in.rx.sample
	if ph.load.total().ok == 0 {
		return nil, fmt.Errorf("no message was delivered inside the measured window")
	}
	return ph, nil
}

// waitUntil sleeps until at and reports whether at was reached; it returns
// early when done closes (a closed loop may finish right at the window's
// end, before the timer fires).
func waitUntil(at time.Time, done <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(at))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-done:
		return !time.Now().Before(at)
	}
}

func (ph *phaseResult) okCount() int { return ph.load.total().ok }

func (ph *phaseResult) result(m map[string]metric) *result {
	t := ph.load.total()
	return &result{Correct: true, Attempted: t.attempted, Failed: t.attempted - t.ok, Metrics: m}
}

// replayCases turns the window's sampled deliveries into replay inputs.
func (ph *phaseResult) replayCases(in *instance) []replayCase {
	var out []replayCase
	for _, d := range ph.sample {
		out = append(out, replayCase{flow: d.flow, msg: d.msg, payload: in.rx.expect(d.flow, d.msg),
			symbols: d.symbols, snr: in.snrFor(d.flow)})
	}
	return out
}

// ---- end-to-end metrics --------------------------------------------------------

// printSteal reports the host's steal time over the measured window, so a
// reader can tell a slow run from a starved one.
func printSteal(out io.Writer, ph *phaseResult) {
	if share := stealShare(ph.whole()); share >= 0 {
		fmt.Fprintf(out, "window: host steal %.1f%% of CPU time\n", 100*share)
	} else {
		fmt.Fprintln(out, "window: host steal unknown")
	}
}

// whole returns the process counters at the window's two edges.
func (ph *phaseResult) whole() (procSample, procSample) {
	return ph.edges[0], ph.edges[len(ph.edges)-1]
}

func endToEnd(ph *phaseResult) map[string]metric {
	secs := (ph.measure / subWindows).Seconds()
	var rate, good, p50, p95, cpu, allocs []float64
	for k := range ph.load.sub {
		w := &ph.load.sub[k]
		a, b := ph.edges[k], ph.edges[k+1]
		ok := float64(max(w.ok, 1))
		rate = append(rate, float64(w.ok)/secs)
		good = append(good, w.bits/secs/1e3)
		p50 = append(p50, w.lat.quantileMs(0.5))
		p95 = append(p95, w.lat.quantileMs(0.95))
		cpu = append(cpu, (b.cpu-a.cpu).Seconds()*1e3/ok)
		allocs = append(allocs, float64(b.allocs-a.allocs)/ok)
	}
	t := ph.load.total()
	return map[string]metric{
		"msgs_per_s":      {median(rate), "1/s"},
		"goodput_kbps":    {median(good), "kbit/s"},
		"latency_p50_ms":  {median(p50), "ms"},
		"latency_p95_ms":  {median(p95), "ms"},
		"bits_per_symbol": {t.bits / t.symbols, "bit/symbol"},
		"fairness_jain":   {ph.load.fairness(), "ratio"},
		"delivered_ratio": {float64(t.ok) / float64(t.attempted), "ratio"},
		"cpu_ms_per_msg":  {median(cpu), "ms"},
		"allocs_per_msg":  {median(allocs), "count"},
		"rss_peak_mb":     {ph.peakRSS, "MB"},
	}
}
