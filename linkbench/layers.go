package main

import (
	"fmt"
	"io"
	"time"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads it should move it on.
// BENCHMARK.json lists the same names, units and directions (the package
// test keeps the two equal).
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	{"core.decode.ns_per_node", "ns", "lower", "msgs_per_s, latency_p50_ms, bits_per_symbol on awgn-link; smallest share on tiny-udp"},
	{"core.decode.nodes_per_msg", "count", "lower", "cpu_ms_per_msg, latency_p95_ms on fading-flows"},
	{"core.decode.attempts_per_msg", "count", "lower", "cpu_ms_per_msg, latency_p95_ms on fading-flows"},
	{"core.decode.saved_ratio", "ratio", "higher", "cpu_ms_per_msg, bits_per_symbol on fading-flows; flat (exact only) on awgn-link, tiny-udp"},
	{"link.sched.approx_share", "ratio", "lower", "cpu_ms_per_msg, bits_per_symbol on fading-flows; flat (exact only) on awgn-link, tiny-udp"},
	{"link.sched.deferrals_per_msg", "count", "lower", "fairness_jain, latency_p95_ms on fading-flows; flat (no budget) on awgn-link, tiny-udp"},
	{"core.pool.hit_ratio", "ratio", "higher", "allocs_per_msg on fading-flows"},
	{"link.sender.self_us_per_msg", "us", "lower", "msgs_per_s, cpu_ms_per_msg on tiny-udp; flat on awgn-link"},
	{"link.sender.ackwait_us_per_msg", "us", "lower", "latency_p50_ms, bits_per_symbol on awgn-link and tiny-udp"},
	{"link.sender.symbols_per_msg", "count", "lower", "latency_p50_ms, bits_per_symbol on awgn-link and tiny-udp"},
	{"link.sender.stale_acks_per_msg", "count", "lower", "latency_p50_ms, bits_per_symbol on awgn-link and tiny-udp"},
	{"core.encode.ns_per_symbol", "ns", "lower", "cpu_ms_per_msg on tiny-udp; setup_s on fading-flows; flat on awgn-link"},
	{"link.frame.ns_per_frame", "ns", "lower", "cpu_ms_per_msg on tiny-udp; setup_s on fading-flows; flat on awgn-link"},
	{"link.transport.send_ns_per_frame", "ns", "lower", "msgs_per_s, latency_p50_ms on tiny-udp; flat on awgn-link"},
	{"link.transport.recv_ns_per_frame", "ns", "lower", "msgs_per_s, latency_p50_ms on tiny-udp; flat on awgn-link"},
	{"link.transport.frames_per_recv", "count", "higher", "msgs_per_s, latency_p50_ms on tiny-udp; flat on awgn-link"},
	{"impair.ns_per_symbol", "ns", "lower", "cpu_ms_per_msg on tiny-udp; flat on awgn-link and on fading-flows (moved into set-up)"},
	{"link.ingest.self_us_per_frame", "us", "lower", "msgs_per_s on tiny-udp; latency_p95_ms on fading-flows; flat on awgn-link"},
	{"link.ingest.frames_per_msg", "count", "lower", "msgs_per_s on tiny-udp; latency_p95_ms on fading-flows; flat on awgn-link"},
	{"link.ack.acks_per_msg", "count", "lower", "latency_p50_ms, cpu_ms_per_msg on tiny-udp; flat on awgn-link"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", "latency_p95_ms, allocs_per_msg on all"},
	{"runtime.allocs_per_frame", "count", "lower", "latency_p95_ms, allocs_per_msg on all"},
	{"gen.late_p99_ms", "ms", "lower", "validity of fading-flows (zero on the closed loops)"},
	{"latency_p99_ms", "ms", "lower", "tail latency of the run's untraced half; reported, not bounded (see README)"},
	{"unattributed_cpu_ms_per_msg", "ms", "lower", "names the remainder: scheduler wait, goroutine handoff, GC"},
	{"failed_ratio", "ratio", "lower", "delivered_ratio on every workload"},
	{"trace.cpu_overhead_ratio", "ratio", "lower", "tracing overhead: traced over bare cpu_ms_per_msg, minus 1"},
	{"trace.latency_p50_overhead_ratio", "ratio", "lower", "tracing overhead: traced over bare latency_p50_ms, minus 1"},
	{"core.decode.busy_ms_per_msg", "ms", "lower", "reconciliation row; dominates awgn-link"},
	{"link.sender.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"core.encode.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"link.frame.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"link.transport.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"link.ingest.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"link.ack.busy_ms_per_msg", "ms", "lower", "reconciliation row; per-packet group"},
	{"impair.busy_ms_per_msg", "ms", "lower", "reconciliation row"},
	{"bench.driver.busy_ms_per_msg", "ms", "lower", "reconciliation row: the benchmark's own load generation and checks"},
}

// ledgerRow is one line of the reconciliation: a layer's busy CPU per
// delivered message inside the traced window.
type ledgerRow struct {
	layer  string
	ms     float64
	source string
}

// perLayer turns the traced phase into the per-layer metrics and the
// reconciliation ledger. base is the bare phase of the same run.
func perLayer(w *workload, ph, base *phaseResult, t *tracer, cost replayCost) (map[string]metric, []ledgerRow) {
	tot := ph.load.total()
	ok := float64(tot.ok)
	rxN := float64(max(ph.rxInWin, 1))
	recN := float64(tot.attempted)
	nodes := float64(ph.rxNodes)
	symbols, stale := tot.symbols, tot.stale
	attempts := func(e map[string]uint64) (total, exact float64) {
		for mode, n := range e {
			total += float64(n)
			if mode == "exact" {
				exact += float64(n)
			}
		}
		return
	}
	at1, ex1 := attempts(ph.e1.SearchAttempts)
	at0, ex0 := attempts(ph.e0.SearchAttempts)
	tries, exact := at1-at0, ex1-ex0
	saved := float64(ph.e1.NodesSaved - ph.e0.NodesSaved)
	hits := float64(ph.e1.Pool.Hits - ph.e0.Pool.Hits)
	misses := float64(ph.e1.Pool.Misses - ph.e0.Pool.Misses)

	send := t.sum(spanSend, "sender")
	recv := t.sum(spanReceive, "receiver")
	txSend := t.sum(spanTxSend, "")
	rxRecv := t.sum(spanTxRecv, "receiver")
	allRecv := t.sum(spanTxRecv, "")
	ackWait := t.sum(spanTxRecv, "sender")
	acks := t.sum(spanAckSend, "")
	corrupt := t.sum(spanCorrupt, "")
	secs := ph.measure.Seconds()
	p0, p1 := ph.whole()
	cpuMs := (p1.cpu - p0.cpu).Seconds() * 1e3

	// Attributed busy time, in ms over the window. Encode and marshal run
	// inside Send, unmarshal inside Receive: the replay's unit costs times
	// the live counts are moved out of those spans into their own rows.
	const ms = 1e-6
	liveEncode := w.params.Loop == "closed"
	encodeMs, marshalMs := 0.0, 0.0
	if liveEncode {
		encodeMs = cost.nsPerSymbol() * symbols * ms
		marshalMs = cost.marshalPerFrame() * float64(txSend.items) * ms
	}
	unmarshalMs := cost.unmarshalPerFrame() * float64(rxRecv.items) * ms
	ledger := []ledgerRow{
		{"link.sender", float64(send.self)*ms - encodeMs - marshalMs, "Send self CPU minus replayed encode and marshal"},
		{"core.encode", encodeMs, "replayed ns/symbol x symbols sent"},
		{"link.frame", marshalMs + unmarshalMs, "replayed ns/frame x frames marshalled and parsed"},
		{"link.transport", float64(txSend.busy+allRecv.busy) * ms, "transport send and receive calls, both ends"},
		{"impair", float64(corrupt.busy) * ms, "CorruptBlock calls"},
		{"link.ingest", float64(recv.self)*ms - unmarshalMs, "Receive self CPU minus replayed unmarshal"},
		{"core.decode", cost.nsPerNode() * nodes * ms, "replayed ns/node x nodes expanded"},
		{"link.ack", float64(acks.busy) * ms, "receiver-side sends of ack frames"},
		{"bench.driver", float64(t.driverBusy()) * ms, "driver threads outside traced calls"},
	}
	attributed := 0.0
	for i := range ledger {
		attributed += ledger[i].ms
		ledger[i].ms /= ok
	}
	ledger = append(ledger, ledgerRow{"unattributed", (cpuMs - attributed) / ok, "process CPU minus the rows above"})

	baseEnd := endToEnd(base)
	baseTot := base.load.total()
	thisEnd := endToEnd(ph)
	overhead := func(name string) float64 { return thisEnd[name].Value/baseEnd[name].Value - 1 }
	m := map[string]metric{
		"core.decode.ns_per_node":          {cost.nsPerNode(), "ns"},
		"core.decode.nodes_per_msg":        {nodes / rxN, "count"},
		"core.decode.attempts_per_msg":     {tries / rxN, "count"},
		"core.decode.saved_ratio":          {safeDiv(saved, saved+nodes), "ratio"},
		"link.sched.approx_share":          {safeDiv(tries-exact, tries), "ratio"},
		"link.sched.deferrals_per_msg":     {float64(ph.e1.BudgetDeferrals-ph.e0.BudgetDeferrals) / rxN, "count"},
		"core.pool.hit_ratio":              {safeDiv(hits, hits+misses), "ratio"},
		"link.sender.self_us_per_msg":      {float64(send.self) / 1e3 / ok, "us"},
		"link.sender.ackwait_us_per_msg":   {float64(ackWait.wall) / 1e3 / ok, "us"},
		"link.sender.symbols_per_msg":      {symbols / recN, "count"},
		"link.sender.stale_acks_per_msg":   {stale / recN, "count"},
		"core.encode.ns_per_symbol":        {cost.nsPerSymbol(), "ns"},
		"link.frame.ns_per_frame":          {cost.marshalPerFrame() + cost.unmarshalPerFrame(), "ns"},
		"link.transport.send_ns_per_frame": {ratio(txSend.busy, txSend.items), "ns"},
		"link.transport.recv_ns_per_frame": {ratio(rxRecv.busy, rxRecv.items), "ns"},
		"link.transport.frames_per_recv":   {ratio(rxRecv.items, rxRecv.calls), "count"},
		"impair.ns_per_symbol":             {ratio(corrupt.busy, corrupt.items), "ns"},
		"link.ingest.self_us_per_frame":    {ratio(recv.self, rxRecv.items) / 1e3, "us"},
		"link.ingest.frames_per_msg":       {float64(rxRecv.items) / rxN, "count"},
		"link.ack.acks_per_msg":            {float64(acks.items) / rxN, "count"},
		"runtime.gc_pause_ms_per_s":        {(p1.gcPause - p0.gcPause).Seconds() * 1e3 / secs, "ms/s"},
		"runtime.allocs_per_frame":         {safeDiv(float64(p1.allocs-p0.allocs), float64(txSend.items)), "count"},
		"gen.late_p99_ms":                  {ph.load.late.quantileMs(0.99), "ms"},
		"failed_ratio":                     {1 - thisEnd["delivered_ratio"].Value, "ratio"},
		"latency_p99_ms":                   {baseTot.lat.quantileMs(0.99), "ms"},
		"trace.cpu_overhead_ratio":         {overhead("cpu_ms_per_msg"), "ratio"},
		"trace.latency_p50_overhead_ratio": {overhead("latency_p50_ms"), "ratio"},
	}
	for _, row := range ledger {
		name := row.layer + ".busy_ms_per_msg"
		if row.layer == "unattributed" {
			name = "unattributed_cpu_ms_per_msg"
		}
		m[name] = metric{row.ms, "ms"}
	}
	return m, ledger
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLedger prints the reconciliation: the rows sum to the process CPU
// per delivered message over the traced window.
func printLedger(out io.Writer, w *workload, ph *phaseResult, ledger []ledgerRow) {
	p0, p1 := ph.whole()
	total := (p1.cpu - p0.cpu).Seconds() * 1e3 / float64(ph.okCount())
	fmt.Fprintf(out, "reconciliation %s: CPU per delivered message over the %v traced window (%d messages)\n",
		w.name, ph.measure.Round(time.Millisecond), ph.okCount())
	fmt.Fprintf(out, "  %-16s %12s %7s  %s\n", "layer", "ms/msg", "share", "measured as")
	sum := 0.0
	for _, r := range ledger {
		sum += r.ms
		fmt.Fprintf(out, "  %-16s %12.4f %6.1f%%  %s\n", r.layer, r.ms, 100*r.ms/total, r.source)
	}
	fmt.Fprintf(out, "  %-16s %12.4f %6.1f%%  process CPU (getrusage); rows sum to %.4f\n", "total", total, 100.0, sum)
	fmt.Fprintf(out, "per-layer metrics and what they should move:\n")
	for _, lm := range layerMetrics {
		fmt.Fprintf(out, "  %-34s %s\n", lm.name, lm.moves)
	}
}
