// Benchmarks regenerating the paper's evaluation artifacts. Each benchmark
// corresponds to a figure, theorem or design claim (see DESIGN.md §3 and
// EXPERIMENTS.md); the headline quantity of each experiment is attached to
// the benchmark result via ReportMetric, so `go test -bench=. -benchmem`
// doubles as a compact reproduction run. The full-resolution sweeps (more SNR
// points, more trials) are produced by cmd/spinalsim.
package spinal_test

import (
	"fmt"
	"testing"
	"time"

	"spinal"
	"spinal/internal/core"
	"spinal/internal/experiments"
	"spinal/internal/impair"
	"spinal/internal/ldpc"
	"spinal/internal/link"
	"spinal/internal/rng"
)

// benchTrials keeps the per-iteration simulation small enough for the
// default benchtime while still averaging over enough messages to be
// meaningful.
const benchTrials = 12

func benchCfg() experiments.SpinalConfig {
	cfg := experiments.Figure2Config()
	cfg.Trials = benchTrials
	cfg.MaxPasses = 400
	return cfg
}

// BenchmarkFigure2Bounds regenerates the reference curves of Figure 2
// (Shannon capacity and the finite-blocklength approximation for n=24,
// eps=1e-4) over the full −10..40 dB sweep.
func BenchmarkFigure2Bounds(b *testing.B) {
	snrs, err := experiments.Figure2SNRs(1)
	if err != nil {
		b.Fatal(err)
	}
	var last []experiments.BoundPoint
	for i := 0; i < b.N; i++ {
		last, err = experiments.Figure2Bounds(snrs)
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := last[len(last)/2]
	b.ReportMetric(mid.Shannon, "capacity_bits/sym@15dB")
	b.ReportMetric(mid.FiniteBlock, "fbl_bound_bits/sym@15dB")
}

// BenchmarkFigure2Spinal regenerates the spinal-code curve of Figure 2
// (m=24, k=8, c=10, B=16, 14-bit ADC) at representative SNR points across the
// figure's range.
func BenchmarkFigure2Spinal(b *testing.B) {
	for _, snr := range []float64{-10, 0, 10, 20, 30, 40} {
		snr := snr
		b.Run(fmt.Sprintf("snr=%+.0fdB", snr), func(b *testing.B) {
			cfg := benchCfg()
			if snr < 0 {
				cfg.Trials = 8 // low-SNR messages need hundreds of symbols each
			}
			var pt experiments.RatePoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.SpinalRateAtSNR(cfg, snr)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Rate, "bits/sym")
			b.ReportMetric(pt.Capacity, "capacity_bits/sym")
		})
	}
}

// BenchmarkFigure2LDPC regenerates the eight fixed-rate LDPC baselines of
// Figure 2, each evaluated at an SNR where it is near its waterfall, and at
// the paper's 40-iteration belief-propagation setting.
func BenchmarkFigure2LDPC(b *testing.B) {
	operating := map[string]float64{
		"LDPC rate=1/2 BPSK":   2,
		"LDPC rate=1/2 QAM-4":  5,
		"LDPC rate=3/4 QAM-4":  8,
		"LDPC rate=1/2 QAM-16": 11,
		"LDPC rate=3/4 QAM-16": 15,
		"LDPC rate=2/3 QAM-64": 19,
		"LDPC rate=3/4 QAM-64": 21,
		"LDPC rate=5/6 QAM-64": 24,
	}
	for _, cfg := range experiments.Figure2LDPCConfigs() {
		cfg := cfg
		cfg.Frames = 20
		snr := operating[cfg.Label()]
		b.Run(cfg.Label(), func(b *testing.B) {
			var pts []experiments.ThroughputPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = experiments.LDPCThroughputCurve(cfg, []float64{snr})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Throughput, "bits/sym")
			b.ReportMetric(pts[0].FER, "fer")
		})
	}
}

// BenchmarkEncoder measures the cost of the Figure 1 encoding process: spine
// computation plus one pass of constellation points for a 1024-bit message.
func BenchmarkEncoder(b *testing.B) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 1024})
	if err != nil {
		b.Fatal(err)
	}
	msg := spinal.RandomMessage(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := code.EncodeStream(msg)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < code.NumSegments(); s++ {
			stream.Next()
		}
	}
	b.ReportMetric(float64(code.NumSegments())*float64(b.N)/b.Elapsed().Seconds(), "symbols/s")
}

// BenchmarkDecoder measures the natural rateless receive loop (B=16, k=8)
// for a 256-bit message: observe one fresh symbol, then decode from the
// root over everything observed so far — the per-symbol-attempt loop of
// the paper's experiments.
func BenchmarkDecoder(b *testing.B) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 256})
	if err != nil {
		b.Fatal(err)
	}
	msg := spinal.RandomMessage(256, 2)
	stream, _ := code.EncodeStream(msg)
	ch, _ := impair.NewAWGN(15, rng.New(3))
	dec, _ := code.NewDecoder()
	for i := 0; i < 2*code.NumSegments(); i++ {
		sym := stream.Next()
		if err := dec.Observe(sym.Pos, ch.Corrupt(sym.Value)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sym := stream.Next()
		if err := dec.Observe(sym.Pos, ch.Corrupt(sym.Value)); err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(256*float64(b.N)/b.Elapsed().Seconds(), "decoded_bits/s")
}

// BenchmarkRatelessDecode measures whole rateless transmissions at 0 dB
// (low SNR, many passes) with the sequential schedule — the natural low-SNR
// operating point, since puncturing pays only at high SNR — under the
// session's default attempt policy, AttemptAdaptive: an attempt after every
// symbol for the first 8 passes, then one per pass. Every attempt decodes
// from the root, so the cost grows with the number of attempts times the
// tree size. The metrics are tree nodes expanded and wall-clock per
// delivered message; CI gates nodes/msg exactly against
// BENCH_baseline.json.
func BenchmarkRatelessDecode(b *testing.B) {
	params := core.Params{K: 8, C: 10, MessageBits: 24, Seed: core.DefaultSeed}
	const trials = 6
	var nodes int64
	var delivered int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, delivered = 0, 0
		for trial := 0; trial < trials; trial++ {
			msg := core.RandomMessage(rng.New(uint64(trial)*13+1), params.MessageBits)
			radio, err := impair.NewQuantizedAWGN(0, 14, rng.New(uint64(trial)*17+3))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.RunChannelSession(core.SessionConfig{
				Params:    params,
				BeamWidth: 16,
			}, msg, radio, core.GenieVerifier(msg, params.MessageBits))
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.NodesExpanded
			if res.Success {
				delivered++
			}
		}
	}
	if delivered > 0 {
		b.ReportMetric(float64(nodes)/float64(delivered), "nodes/msg")
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(delivered), "ns/msg")
	}
}

// benchObservations returns the decode-kernel benchmarks' operating point:
// a 128-bit message (k = 8, c = 10) observed for four passes at 0 dB through
// a 14-bit ADC — a mid-SNR point where the decode does real disambiguation
// work at every level — plus the number of symbols the container holds.
func benchObservations(b *testing.B) (core.Params, *core.Observations, int) {
	b.Helper()
	params := core.Params{K: 8, C: 10, MessageBits: 128, Seed: core.DefaultSeed}
	msg := core.RandomMessage(rng.New(41), params.MessageBits)
	enc, err := core.NewEncoder(params, msg)
	if err != nil {
		b.Fatal(err)
	}
	radio, err := impair.NewQuantizedAWGN(0, 14, rng.New(43))
	if err != nil {
		b.Fatal(err)
	}
	sched, err := core.NewSequentialSchedule(params.NumSegments())
	if err != nil {
		b.Fatal(err)
	}
	obs, err := core.NewObservations(params.NumSegments())
	if err != nil {
		b.Fatal(err)
	}
	nSymbols := 4 * params.NumSegments()
	for i := 0; i < nSymbols; i++ {
		pos := sched.Pos(i)
		if err := obs.Add(pos, radio.Corrupt(enc.SymbolAt(pos))); err != nil {
			b.Fatal(err)
		}
	}
	return params, obs, nSymbols
}

// benchDecode decodes obs b.N times and reports symbols/s and nodes/s.
func benchDecode(b *testing.B, dec *core.BeamDecoder, obs *core.Observations, nSymbols int) {
	// One untimed decode sizes the search buffers, so the rows show the
	// steady-state allocation profile.
	if _, err := dec.Decode(obs); err != nil {
		b.Fatal(err)
	}
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dec.Decode(obs)
		if err != nil {
			b.Fatal(err)
		}
		nodes += int64(out.NodesExpanded)
	}
	b.ReportMetric(float64(b.N)*float64(nSymbols)/b.Elapsed().Seconds(), "symbols/s")
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkDecodeSymbolsPerSec is the single-core decoder throughput gate:
// how many received channel symbols per second one worker folds through a
// full from-root beam decode, across beam widths. The symbols/s metric is the
// paper-facing unit (a receiver must decode at least as fast as symbols
// arrive); nodes/s is the same run in the decoder's unit of work. CI's
// bench-smoke job diffs this benchmark against the committed
// BENCH_baseline.json with benchstat.
func BenchmarkDecodeSymbolsPerSec(b *testing.B) {
	params, obs, nSymbols := benchObservations(b)
	for _, beam := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("B=%d", beam), func(b *testing.B) {
			dec, err := core.NewBeamDecoder(params, beam)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, dec, obs, nSymbols)
		})
	}
}

// BenchmarkApproxDecode measures the approximate search against the exact
// beam search on the same observations: a full from-root decode at the
// mid-SNR operating point, per (search mode, beam width). Every level is
// observed here, so the bubble cap never fires and the approx rows must
// match the exact rows: the benchmark guards against the approximate mode
// taxing the decodes it cannot help. (Its savings come on the attempts made
// while levels are still unobserved — see the frontier scenario.) CI's
// bench-smoke job diffs this benchmark against the committed
// BENCH_baseline.json with benchstat.
func BenchmarkApproxDecode(b *testing.B) {
	params, obs, nSymbols := benchObservations(b)
	for _, search := range []string{"exact", "approx"} {
		for _, beam := range []int{32, 64} {
			search, beam := search, beam
			b.Run(fmt.Sprintf("search=%s/B=%d", search, beam), func(b *testing.B) {
				mode, err := core.ParseSearchMode(search)
				if err != nil {
					b.Fatal(err)
				}
				dec, err := core.NewBeamDecoder(params, beam)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.SetSearchMode(mode); err != nil {
					b.Fatal(err)
				}
				benchDecode(b, dec, obs, nSymbols)
			})
		}
	}
}

// BenchmarkBatchObserve isolates the receive hot path the batch-first API
// vectorizes: producing one pass of symbols, corrupting it, and folding it
// into the decoder's observations — scalar (one schedule call, one encoder
// call, one scalar Corrupt call and one Observe per symbol) versus batch
// (one NextBatch, one CorruptBlock, one ObserveBatch per pass). The symbols folded in are bit-identical between the two
// modes (TestObserveBatchMatchesObserve enforces it); this benchmark isolates
// the call-overhead win.
func BenchmarkBatchObserve(b *testing.B) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 1024})
	if err != nil {
		b.Fatal(err)
	}
	msg := spinal.RandomMessage(1024, 5)
	nseg := code.NumSegments()
	const passes = 4

	b.Run("scalar", func(b *testing.B) {
		ch, err := impair.NewAWGN(15, rng.New(6))
		if err != nil {
			b.Fatal(err)
		}
		dec, err := code.NewDecoder()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.Reset()
			stream, err := code.EncodeStream(msg)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < passes*nseg; j++ {
				sym := stream.Next()
				if err := dec.Observe(sym.Pos, ch.Corrupt(sym.Value)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(passes*nseg)*float64(b.N)/b.Elapsed().Seconds(), "symbols/s")
	})
	b.Run("batch", func(b *testing.B) {
		ch, err := spinal.NewAWGN(15, 6)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := code.NewDecoder()
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]spinal.Symbol, nseg)
		poss := make([]spinal.SymbolPos, nseg)
		tx := make([]complex128, nseg)
		rx := make([]complex128, nseg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.Reset()
			stream, err := code.EncodeStream(msg)
			if err != nil {
				b.Fatal(err)
			}
			for p := 0; p < passes; p++ {
				stream.NextBatch(batch)
				for k, s := range batch {
					poss[k], tx[k] = s.Pos, s.Value
				}
				ch.CorruptBlock(rx, tx)
				if err := dec.ObserveBatch(poss, rx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(passes*nseg)*float64(b.N)/b.Elapsed().Seconds(), "symbols/s")
	})
}

// BenchmarkTransmitChannel measures the full rateless loop through
// Code.TransmitOver on static AWGN and on time-varying channels (Rayleigh
// block fading and a Gilbert-Elliott trace).
func BenchmarkTransmitChannel(b *testing.B) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 256})
	if err != nil {
		b.Fatal(err)
	}
	msg := spinal.RandomMessage(256, 7)
	run := func(b *testing.B, mk func(i int) (*spinal.TransmitResult, error)) {
		var symbols, bits int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mk(i)
			if err != nil {
				b.Fatal(err)
			}
			if res.Delivered {
				bits += 256
			}
			symbols += res.Symbols
		}
		if symbols > 0 {
			b.ReportMetric(float64(bits)/float64(symbols), "bits/sym")
		}
	}
	b.Run("awgn-channel", func(b *testing.B) {
		run(b, func(i int) (*spinal.TransmitResult, error) {
			ch, err := spinal.NewAWGN(15, uint64(i)+1)
			if err != nil {
				return nil, err
			}
			return code.TransmitOver(msg, ch, nil, 0)
		})
	})
	b.Run("rayleigh", func(b *testing.B) {
		run(b, func(i int) (*spinal.TransmitResult, error) {
			ch, err := spinal.NewRayleigh(18, 32, uint64(i)+1)
			if err != nil {
				return nil, err
			}
			return code.TransmitOver(msg, ch, nil, 0)
		})
	})
	b.Run("gilbert-elliott", func(b *testing.B) {
		run(b, func(i int) (*spinal.TransmitResult, error) {
			trace, err := spinal.GilbertElliottTrace(25, 8, 400, 200, uint64(i)+1)
			if err != nil {
				return nil, err
			}
			ch, err := spinal.NewTraceChannel(trace, uint64(i)+9)
			if err != nil {
				return nil, err
			}
			return code.TransmitOver(msg, ch, nil, 0)
		})
	})
}

// BenchmarkTheorem1Gap measures the empirical gap to capacity against the
// Theorem 1 guarantee at a mid-range SNR.
func BenchmarkTheorem1Gap(b *testing.B) {
	cfg := benchCfg()
	var pts []experiments.Theorem1Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Theorem1Gap(cfg, []float64{20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Rate, "bits/sym")
	b.ReportMetric(pts[0].Guarantee, "theorem1_bits/sym")
	b.ReportMetric(pts[0].GapToCap, "gap_bits/sym")
}

// BenchmarkTheorem2BSC measures the rate of the binary-channel variant
// against the BSC capacity (Theorem 2).
func BenchmarkTheorem2BSC(b *testing.B) {
	for _, p := range []float64{0.05, 0.2} {
		p := p
		b.Run(fmt.Sprintf("p=%.2f", p), func(b *testing.B) {
			cfg := experiments.SpinalConfig{
				MessageBits: 16, K: 4, BeamWidth: 16, Trials: 8, MaxPasses: 400, Seed: 7,
			}
			var pts []experiments.BSCPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = experiments.SpinalBSCCurve(cfg, []float64{p})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].Rate, "bits/use")
			b.ReportMetric(pts[0].Capacity, "capacity_bits/use")
		})
	}
}

// BenchmarkScaleDownB quantifies the graceful scale-down property (§3.2):
// achieved rate at 10 dB as the beam width shrinks from 64 to 1.
func BenchmarkScaleDownB(b *testing.B) {
	for _, beam := range []int{1, 4, 16, 64} {
		beam := beam
		b.Run(fmt.Sprintf("B=%d", beam), func(b *testing.B) {
			cfg := benchCfg()
			cfg.BeamWidth = beam
			var pt experiments.RatePoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.SpinalRateAtSNR(cfg, 10)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Rate, "bits/sym")
		})
	}
}

// BenchmarkPuncturing contrasts the punctured (striped) schedule with the
// sequential one at 35 dB, where puncturing is what lifts the rate above k.
func BenchmarkPuncturing(b *testing.B) {
	for _, sched := range []string{"striped", "sequential"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Schedule = sched
			cfg.Trials = 20
			var pt experiments.RatePoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.SpinalRateAtSNR(cfg, 35)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Rate, "bits/sym")
		})
	}
}

// BenchmarkQuantization sweeps the receiver ADC depth at 20 dB (the paper's
// simulations quantize each dimension to 14 bits).
func BenchmarkQuantization(b *testing.B) {
	for _, bits := range []int{6, 10, 14} {
		bits := bits
		b.Run(fmt.Sprintf("adc=%dbit", bits), func(b *testing.B) {
			cfg := benchCfg()
			cfg.ADCBits = bits
			var pt experiments.RatePoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.SpinalRateAtSNR(cfg, 20)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Rate, "bits/sym")
		})
	}
}

// BenchmarkMappers compares the linear mapping of Eq. 3 with the uniform and
// truncated-Gaussian mappings (§6 future work) at 20 dB.
func BenchmarkMappers(b *testing.B) {
	for _, mapper := range []string{"linear", "uniform", "gaussian"} {
		mapper := mapper
		b.Run(mapper, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Mapper = mapper
			var pt experiments.RatePoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.SpinalRateAtSNR(cfg, 20)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Rate, "bits/sym")
		})
	}
}

// attemptEverySymbol attempts a decode after every received symbol, the
// finest granularity BenchmarkAttemptPolicy compares against.
type attemptEverySymbol struct{}

func (attemptEverySymbol) FirstAttempt(minUses, nseg int) (int, bool) { return minUses, false }
func (attemptEverySymbol) ShouldAttempt(received, nseg int) bool      { return true }
func (attemptEverySymbol) Decoded(uses, nseg int, held bool)          {}

// BenchmarkAttemptPolicy is the decode-attempt-policy ablation: how much rate
// the receiver loses by attempting a decode only once per pass instead of
// after every symbol, at 25 dB where attempts are frequent.
func BenchmarkAttemptPolicy(b *testing.B) {
	params := core.Params{K: 8, C: 10, MessageBits: 24, Seed: core.DefaultSeed}
	policies := map[string]core.AttemptPolicy{
		"every-symbol": attemptEverySymbol{},
		"every-pass":   core.AttemptEveryPass{},
	}
	for name, policy := range policies {
		name, policy := name, policy
		b.Run(name, func(b *testing.B) {
			var totalBits, totalSymbols int
			for i := 0; i < b.N; i++ {
				msgSrc := rng.New(uint64(i)*13 + 1)
				msg := core.RandomMessage(msgSrc, params.MessageBits)
				ch, err := impair.NewAWGN(25, rng.New(uint64(i)*17+3))
				if err != nil {
					b.Fatal(err)
				}
				sched, _ := core.NewStripedSchedule(params.NumSegments(), 8)
				res, err := core.RunChannelSession(core.SessionConfig{
					Params: params, BeamWidth: 16, Schedule: sched, Attempts: policy,
				}, msg, ch, core.GenieVerifier(msg, params.MessageBits))
				if err != nil {
					b.Fatal(err)
				}
				if res.Success {
					totalBits += params.MessageBits
				}
				totalSymbols += res.ChannelUses
			}
			b.ReportMetric(float64(totalBits)/float64(totalSymbols), "bits/sym")
		})
	}
}

// BenchmarkLinkProtocol runs the rateless link-layer protocol end to end over
// an in-memory transport with a 15 dB simulated radio (the §6 future-work
// protocol, experiment E12).
func BenchmarkLinkProtocol(b *testing.B) {
	payload := make([]byte, 48)
	for i := range payload {
		payload[i] = byte(i)
	}
	var symbols, bits int
	for i := 0; i < b.N; i++ {
		a, peer, err := link.NewPipePair(0, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		// The AckPoll paces the sender like a finite-rate radio so the
		// receiver's decode attempts keep up (see examples/ratelesslink).
		cfg := link.Config{SymbolsPerFrame: 64, AckPoll: 25 * time.Millisecond}
		sender, err := link.NewSender(a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		radio, err := impair.NewQuantizedAWGN(15, 14, rng.New(uint64(i)+100))
		if err != nil {
			b.Fatal(err)
		}
		receiver, err := link.NewReceiver(peer, cfg, radio)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				_, rerr := receiver.Receive(200 * time.Millisecond)
				if rerr != nil {
					return
				}
			}
		}()
		report, err := sender.Send(uint32(i)+1, payload)
		if err != nil {
			b.Fatal(err)
		}
		if report.Acked {
			bits += len(payload) * 8
			symbols += report.SymbolsSent
		}
		a.Close()
		<-done
	}
	if symbols > 0 {
		b.ReportMetric(float64(bits)/float64(symbols), "bits/sym")
	}
}

// BenchmarkMultiFlow measures the flow-multiplexed link engine's aggregate
// decode throughput as concurrent flows share one receiver and its decoder
// pool (decoders recycled across messages and flows). Frames are fed through
// the deterministic synchronous path so the numbers isolate engine and pool
// overhead rather than goroutine scheduling noise; each flow streams two
// messages so the pool actually reuses decoders.
func BenchmarkMultiFlow(b *testing.B) {
	const messagesPerFlow = 2
	payload := make([]byte, 16)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, flows := range []int{1, 8, 32} {
		// Precompute every flow's noiseless v1 frames once.
		type msgFrames struct{ frames [][]byte }
		build := func() [][]msgFrames {
			all := make([][]msgFrames, flows)
			cfg := link.Config{K: 4, C: 8}
			for f := 0; f < flows; f++ {
				all[f] = make([]msgFrames, messagesPerFlow)
				for m := 0; m < messagesPerFlow; m++ {
					frames, err := link.EncodeFrames(cfg, uint32(f+1), uint32(m+1), payload, 24, 2, nil)
					if err != nil {
						b.Fatal(err)
					}
					all[f][m] = msgFrames{frames: frames}
				}
			}
			return all
		}
		all := build()
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			totalMsgs := flows * messagesPerFlow
			start := time.Now()
			for i := 0; i < b.N; i++ {
				_, near, err := link.NewPipePair(0, 1)
				if err != nil {
					b.Fatal(err)
				}
				recv, err := link.NewReceiver(near, link.Config{K: 4, C: 8}, nil)
				if err != nil {
					b.Fatal(err)
				}
				delivered := 0
				cur := make([]int, flows)  // current message per flow
				next := make([]int, flows) // next frame of that message
				for delivered < totalMsgs {
					progressed := false
					for f := 0; f < flows; f++ {
						if cur[f] >= messagesPerFlow {
							continue
						}
						mf := all[f][cur[f]]
						if next[f] >= len(mf.frames) {
							b.Fatalf("flow %d msg %d not delivered within its noiseless frames", f+1, cur[f]+1)
						}
						d, err := recv.HandleFrame(mf.frames[next[f]])
						if err != nil {
							b.Fatal(err)
						}
						next[f]++
						progressed = true
						if d != nil {
							delivered++
							cur[f]++
							next[f] = 0
						}
					}
					if !progressed {
						b.Fatal("benchmark made no progress")
					}
				}
				recv.Close()
				near.Close()
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*totalMsgs)/elapsed, "msgs/sec")
				b.ReportMetric(float64(b.N*totalMsgs*len(payload)*8)/elapsed, "bits/sec")
			}
		})
	}
}

// BenchmarkAdaptationVsRateless compares reactive rate adaptation against the
// rateless spinal code over a bursty Gilbert-Elliott channel whose state
// changes faster than the adaptation feedback (the §1 motivation, experiment
// E14 in EXPERIMENTS.md).
func BenchmarkAdaptationVsRateless(b *testing.B) {
	var pts []experiments.AdaptationPoint
	var err error
	scenario := experiments.DefaultAdaptationScenarios()[2:3] // fast fading
	for i := 0; i < b.N; i++ {
		pts, err = experiments.AdaptationComparison(experiments.AdaptationConfig{
			Scenarios: scenario, SymbolBudget: 4000, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].AdaptiveThroughput, "adaptive_bits/sym")
	b.ReportMetric(pts[0].RatelessThroughput, "rateless_bits/sym")
}

// BenchmarkFixedRateSpinal evaluates the fixed-rate (feedback-free)
// instantiation of the spinal code at 2 bits/symbol against the rateless mode
// at the same SNR (§3's fixed-rate remark, experiment E15).
func BenchmarkFixedRateSpinal(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 10
	var pts []experiments.FixedRatePoint
	for i := 0; i < b.N; i++ {
		rateless, err := experiments.SpinalRateCurve(cfg, []float64{12})
		if err != nil {
			b.Fatal(err)
		}
		pts, err = experiments.FixedRateSpinal(cfg, rateless, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Throughput, "fixed_bits/sym")
	b.ReportMetric(pts[0].RatelessRate, "rateless_bits/sym")
}

// BenchmarkConvolutional measures the extra rated baseline (K=7 convolutional
// code with Viterbi decoding) at its operating point.
func BenchmarkConvolutional(b *testing.B) {
	cfg := experiments.ConvConfig{Rate: "1/2", Modulation: "BPSK", FrameBits: 288, Frames: 20, Seed: 5}
	var pts []experiments.ThroughputPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.ConvThroughputCurve(cfg, []float64{5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Throughput, "bits/sym")
}

// BenchmarkHARQ measures the hybrid-ARQ (Chase combining) rateless
// comparator built from the rate-1/2 LDPC code over QAM-16, at an SNR below
// its single-shot threshold where combining is what delivers the frames.
func BenchmarkHARQ(b *testing.B) {
	cfg := experiments.HARQConfig{Rate: ldpc.Rate12, Modulation: "QAM-16", Frames: 15, Seed: 11}
	var pts []experiments.ThroughputPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.HARQThroughputCurve(cfg, []float64{7})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Throughput, "bits/sym")
}

// BenchmarkFountainOverhead measures the LT-code reception overhead over a
// 30% BEC — the related-work rateless comparator (§2).
func BenchmarkFountainOverhead(b *testing.B) {
	var pts []experiments.OverheadPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.FountainOverhead(experiments.FountainConfig{
			K: 128, BlockSize: 32, Trials: 5, Erasures: []float64{0.3}, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Overhead, "received/k")
}
