package harq

import (
	"testing"

	"spinal/internal/impair"
	"spinal/internal/ldpc"
	"spinal/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Rate: ldpc.Rate12, Modulation: "nope"}); err == nil {
		t.Error("unknown modulation accepted")
	}
	if _, err := New(Config{Rate: ldpc.Rate(9)}); err == nil {
		t.Error("unknown rate accepted")
	}
	if _, err := New(Config{Rate: ldpc.Rate12, MaxRounds: -1}); err == nil {
		t.Error("negative rounds accepted")
	}
	s, err := New(Config{Rate: ldpc.Rate12})
	if err != nil {
		t.Fatal(err)
	}
	if s.InfoBits() != 324 {
		t.Fatalf("InfoBits = %d", s.InfoBits())
	}
	if s.SymbolsPerRound() != 648/4 {
		t.Fatalf("SymbolsPerRound = %d for the default QAM-16", s.SymbolsPerRound())
	}
	if s.Label() == "" {
		t.Error("empty label")
	}
}

func TestRunFrameCleanChannelOneRound(t *testing.T) {
	s, err := New(Config{Rate: ldpc.Rate12, Modulation: "QAM-16"})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := impair.NewAWGN(20, rng.New(1))
	res, err := s.RunFrame(ch.Corrupt, ch.NoiseVariance(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Rounds != 1 {
		t.Fatalf("clean channel should deliver in one round: %+v", res)
	}
	if res.Symbols != s.SymbolsPerRound() {
		t.Fatalf("Symbols = %d", res.Symbols)
	}
}

func TestRunFrameCombiningGain(t *testing.T) {
	// At an SNR where a single transmission of rate-1/2 QAM-16 fails (below
	// its ~11 dB threshold), Chase combining across rounds must eventually
	// succeed: two rounds give +3 dB effective SNR, three give ~+4.8 dB.
	s, err := New(Config{Rate: ldpc.Rate12, Modulation: "QAM-16", MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := impair.NewAWGN(7, rng.New(3))
	src := rng.New(4)
	delivered, multiRound := 0, 0
	const frames = 10
	for i := 0; i < frames; i++ {
		res, err := s.RunFrame(ch.Corrupt, ch.NoiseVariance(), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
			if res.Rounds > 1 {
				multiRound++
			}
		}
	}
	if delivered < frames-1 {
		t.Fatalf("only %d/%d frames delivered with combining at 7 dB", delivered, frames)
	}
	if multiRound == 0 {
		t.Fatal("no frame needed more than one round at 7 dB; the test SNR is not probing combining")
	}
}

func TestRunFrameGivesUp(t *testing.T) {
	s, err := New(Config{Rate: ldpc.Rate56, Modulation: "QAM-64", MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := impair.NewAWGN(-5, rng.New(5))
	res, err := s.RunFrame(ch.Corrupt, ch.NoiseVariance(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("rate-5/6 QAM-64 delivered at -5 dB; implausible")
	}
	if res.Rounds != 2 || res.Symbols != 2*s.SymbolsPerRound() {
		t.Fatalf("give-up accounting wrong: %+v", res)
	}
}

func TestRunFrameNilArguments(t *testing.T) {
	s, _ := New(Config{Rate: ldpc.Rate12})
	if _, err := s.RunFrame(nil, 0.1, rng.New(1)); err == nil {
		t.Error("nil channel accepted")
	}
	ch, _ := impair.NewAWGN(10, rng.New(1))
	if _, err := s.RunFrame(ch.Corrupt, ch.NoiseVariance(), nil); err == nil {
		t.Error("nil source accepted")
	}
}
