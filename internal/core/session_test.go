package core

import (
	"math"
	"testing"

	"spinal/internal/channel"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// noiselessBits is a BSC with zero crossover probability: the noiseless
// binary channel.
func noiselessBits() *channel.BSC {
	ch, _ := channel.NewBSC(0, rng.New(1))
	return ch
}

func TestSessionNoiselessAchievesMaxRate(t *testing.T) {
	// With no noise and per-symbol decode attempts, the sequential schedule
	// decodes as soon as the first pass completes: exactly n/k symbols, i.e.
	// the unpunctured maximum rate of k bits/symbol.
	p := DefaultParams()
	msg := testMessage(61, p.MessageBits)
	cfg := SessionConfig{Params: p, BeamWidth: 16, Attempts: AttemptEverySymbol{}}
	res, err := RunChannelSession(cfg, msg, impair.NewPipeline(), GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("noiseless session failed")
	}
	if res.ChannelUses != p.NumSegments() {
		t.Fatalf("noiseless session used %d symbols, want %d", res.ChannelUses, p.NumSegments())
	}
	if got := res.Rate(p.MessageBits); got != float64(p.K) {
		t.Fatalf("noiseless rate = %v, want %v", got, float64(p.K))
	}
	if !EqualMessages(res.Decoded, msg, p.MessageBits) {
		t.Fatal("decoded message mismatch")
	}
}

func TestSessionHighSNRRate(t *testing.T) {
	// At 25 dB (capacity ~8.3 bits/symbol) the k=8 code with the punctured
	// schedule and per-symbol decode attempts should sustain a rate of at
	// least 6 bits/symbol over a handful of messages.
	p := DefaultParams()
	src := rng.New(62)
	msgSrc := rng.New(63)
	ch, _ := impair.NewAWGN(25, src)
	sched, _ := NewStripedSchedule(p.NumSegments(), 8)
	var bits, uses int
	for i := 0; i < 10; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		cfg := SessionConfig{Params: p, BeamWidth: 16, Schedule: sched, Attempts: AttemptEverySymbol{}}
		res, err := RunChannelSession(cfg, msg, ch, GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("message %d failed at 25 dB", i)
		}
		bits += p.MessageBits
		uses += res.ChannelUses
	}
	rate := float64(bits) / float64(uses)
	if rate < 6 {
		t.Fatalf("rate at 25 dB = %v, want >= 6", rate)
	}
}

func TestSessionLowSNRStillDecodes(t *testing.T) {
	// At 0 dB (capacity 1 bit/symbol) the rateless loop needs many passes but
	// must still deliver every message, at a rate clearly below capacity but
	// well above zero.
	p := DefaultParams()
	src := rng.New(64)
	msgSrc := rng.New(65)
	ch, _ := impair.NewAWGN(0, src)
	var bits, uses int
	for i := 0; i < 5; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		cfg := SessionConfig{Params: p, BeamWidth: 16}
		res, err := RunChannelSession(cfg, msg, ch, GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("message %d failed at 0 dB", i)
		}
		bits += p.MessageBits
		uses += res.ChannelUses
	}
	rate := float64(bits) / float64(uses)
	if rate <= 0.3 || rate > 1.0 {
		t.Fatalf("rate at 0 dB = %v, want within (0.3, 1.0]", rate)
	}
}

func TestSessionGiveUpOnHopelessChannel(t *testing.T) {
	// A BSC with crossover 0.5 has zero capacity; the session must hit the
	// give-up bound and report failure.
	p := Params{K: 4, C: 10, MessageBits: 12, Seed: 66}
	msg := testMessage(67, p.MessageBits)
	src := rng.New(68)
	bsc, _ := channel.NewBSC(0.5, src)
	cfg := SessionConfig{Params: p, BeamWidth: 4, MaxSymbols: 60}
	res, err := RunBitChannelSession(cfg, msg, bsc, GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Fatal("session claimed success over a zero-capacity channel")
	}
	if res.ChannelUses != 60 {
		t.Fatalf("ChannelUses = %d, want the give-up bound 60", res.ChannelUses)
	}
	if res.Rate(p.MessageBits) != 0 {
		t.Fatal("failed session should report zero rate")
	}
}

// poisonChannel is a noiseless BlockChannel that replaces one received
// value of its first block with bad.
type poisonChannel struct {
	bad   complex128
	calls int
}

func (c *poisonChannel) CorruptBlock(dst, src []complex128) {
	copy(dst, src)
	if c.calls == 0 {
		dst[len(dst)/2] = c.bad
	}
	c.calls++
}

// TestSessionRejectsNonFiniteValues runs a session over a channel that
// emits NaN, +Inf or -Inf: the session must fail before any decode.
func TestSessionRejectsNonFiniteValues(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(62, p.MessageBits)
	for _, bad := range []complex128{
		complex(math.NaN(), 0),
		complex(0, math.Inf(1)),
		complex(math.Inf(-1), 1),
	} {
		decodes := 0
		verify := func(m []byte) bool {
			decodes++
			return EqualMessages(m, msg, p.MessageBits)
		}
		cfg := SessionConfig{Params: p, BeamWidth: 16}
		res, err := RunChannelSession(cfg, msg, &poisonChannel{bad: bad}, verify)
		if err == nil {
			t.Fatalf("%v: session succeeded (%+v)", bad, res)
		}
		if decodes != 0 {
			t.Fatalf("%v: %d decode attempts ran on a poisoned block", bad, decodes)
		}
	}
}

func TestSessionBitChannelNoiseless(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 24, Seed: 69}
	msg := testMessage(70, p.MessageBits)
	cfg := SessionConfig{Params: p, BeamWidth: 16, Attempts: AttemptEverySymbol{}}
	res, err := RunBitChannelSession(cfg, msg, noiselessBits(), GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("noiseless bit session failed")
	}
	// Rate over a noiseless binary channel cannot meaningfully exceed
	// 1 bit per coded bit plus the k-bit slack of the final decode attempt.
	if res.ChannelUses < p.MessageBits-p.K {
		t.Fatalf("decoded from only %d coded bits; information-theoretically suspicious", res.ChannelUses)
	}
	if res.ChannelUses > 4*p.MessageBits {
		t.Fatalf("noiseless bit session needed %d coded bits", res.ChannelUses)
	}
}

func TestSessionBitChannelBSC(t *testing.T) {
	p := Params{K: 4, C: 10, MessageBits: 16, Seed: 71}
	src := rng.New(72)
	msgSrc := rng.New(73)
	bsc, _ := channel.NewBSC(0.1, src)
	for i := 0; i < 5; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		cfg := SessionConfig{Params: p, BeamWidth: 16}
		res, err := RunBitChannelSession(cfg, msg, bsc, GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("message %d failed over BSC(0.1)", i)
		}
		if !EqualMessages(res.Decoded, msg, p.MessageBits) {
			t.Fatalf("message %d decoded incorrectly", i)
		}
	}
}

func TestSessionPuncturedScheduleBeatsMaxRateAtHighSNR(t *testing.T) {
	// At 35 dB the capacity (~11.6 bits/symbol) exceeds k=8, so the punctured
	// schedule plus per-symbol decode attempts should deliver some messages
	// in fewer than n/k symbols, pushing the aggregate rate above k. This is
	// the §3.1 puncturing claim.
	p := DefaultParams()
	src := rng.New(74)
	msgSrc := rng.New(75)
	ch, _ := impair.NewAWGN(35, src)
	sched, err := NewStripedSchedule(p.NumSegments(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var bits, uses int
	for i := 0; i < 30; i++ {
		msg := RandomMessage(msgSrc, p.MessageBits)
		cfg := SessionConfig{
			Params:    p,
			BeamWidth: 16,
			Schedule:  sched,
			Attempts:  AttemptEverySymbol{},
		}
		res, err := RunChannelSession(cfg, msg, ch, GenieVerifier(msg, p.MessageBits))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			t.Fatalf("message %d failed at 35 dB", i)
		}
		bits += p.MessageBits
		uses += res.ChannelUses
	}
	rate := float64(bits) / float64(uses)
	if rate <= float64(p.K) {
		t.Fatalf("punctured rate at 35 dB = %v, want > %d", rate, p.K)
	}
}

func TestAttemptPolicies(t *testing.T) {
	if !(AttemptEverySymbol{}).ShouldAttempt(1, 3) {
		t.Error("every-symbol policy skipped an attempt")
	}
	ep := AttemptEveryPass{}
	if ep.ShouldAttempt(2, 3) || !ep.ShouldAttempt(3, 3) || !ep.ShouldAttempt(6, 3) {
		t.Error("every-pass policy misfires")
	}
	ad := AttemptAdaptive{FinePasses: 2}
	if !ad.ShouldAttempt(1, 3) || !ad.ShouldAttempt(5, 3) {
		t.Error("adaptive policy should be fine-grained early")
	}
	if ad.ShouldAttempt(7, 3) || !ad.ShouldAttempt(9, 3) {
		t.Error("adaptive policy should be per-pass after the fine phase")
	}
	def := AttemptAdaptive{}
	if !def.ShouldAttempt(3*DefaultFinePasses, 3) ||
		def.ShouldAttempt(3*DefaultFinePasses+1, 3) ||
		!def.ShouldAttempt(3*(DefaultFinePasses+1), 3) {
		t.Error("default adaptive policy fine window misplaced")
	}
	bo := AttemptBackoff{DensePasses: 4}
	if !bo.ShouldAttempt(3*4, 3) || bo.ShouldAttempt(3*5, 3) || !bo.ShouldAttempt(3*6, 3) {
		t.Error("backoff policy misfires in the dense-to-sparse transition")
	}
	if bo.ShouldAttempt(3*17, 3) || !bo.ShouldAttempt(3*24, 3) {
		t.Error("backoff policy misfires in the sparse phase")
	}
	if bo.ShouldAttempt(7, 3) {
		t.Error("backoff policy should only attempt at pass boundaries")
	}
}

func TestSessionEveryPassPolicyAlignsAttempts(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(76, p.MessageBits)
	src := rng.New(77)
	ch, _ := impair.NewAWGN(12, src)
	cfg := SessionConfig{Params: p, BeamWidth: 16, Attempts: AttemptEveryPass{}}
	res, err := RunChannelSession(cfg, msg, ch, GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("session failed at 12 dB")
	}
	if res.ChannelUses%p.NumSegments() != 0 {
		t.Fatalf("every-pass policy stopped mid-pass at %d symbols", res.ChannelUses)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	p := DefaultParams()
	msg := testMessage(78, p.MessageBits)
	if _, err := RunChannelSession(SessionConfig{Params: p}, msg, nil, GenieVerifier(msg, p.MessageBits)); err == nil {
		t.Error("nil channel accepted")
	}
	if _, err := RunChannelSession(SessionConfig{Params: p}, msg, impair.NewPipeline(), nil); err == nil {
		t.Error("nil verifier accepted")
	}
	bad := p
	bad.K = 0
	if _, err := RunChannelSession(SessionConfig{Params: bad}, msg, impair.NewPipeline(), GenieVerifier(msg, p.MessageBits)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := RunBitChannelSession(SessionConfig{Params: p}, msg, nil, GenieVerifier(msg, p.MessageBits)); err == nil {
		t.Error("nil bit channel accepted")
	}
	if _, err := RunChannelSession(SessionConfig{Params: p}, []byte{1}, impair.NewPipeline(), GenieVerifier(msg, p.MessageBits)); err == nil {
		t.Error("wrong-size message accepted")
	}
}

func TestGenieVerifierCopiesTruth(t *testing.T) {
	msg := []byte{0xab, 0xcd, 0x01}
	v := GenieVerifier(msg, 24)
	msg[0] = 0 // later mutation must not affect the verifier
	if !v([]byte{0xab, 0xcd, 0x01}) {
		t.Fatal("verifier rejected the original truth")
	}
	if v([]byte{0x00, 0xcd, 0x01}) {
		t.Fatal("verifier accepted a different message")
	}
}
