package link

import (
	"encoding/json"
	"testing"
)

func TestParseFaultProfile(t *testing.T) {
	kv := "drop=0.05,dup=0.02,reorder=0.1,depth=4,corrupt=0.01,bits=8,err=0.01,stall=64:8,ge=0.05:0.3:0.02:0.9"
	p, err := ParseFaultProfile(kv)
	if err != nil {
		t.Fatalf("ParseFaultProfile(kv): %v", err)
	}
	want := FaultProfile{
		DropProb: 0.05, DupProb: 0.02,
		ReorderProb: 0.1, ReorderDepth: 4,
		CorruptProb: 0.01, CorruptBits: 8,
		ErrProb:    0.01,
		StallEvery: 64, StallFrames: 8,
		GE: &GilbertElliott{GoodToBad: 0.05, BadToGood: 0.3, GoodLoss: 0.02, BadLoss: 0.9},
	}
	if p.DropProb != want.DropProb || p.DupProb != want.DupProb ||
		p.ReorderProb != want.ReorderProb || p.ReorderDepth != want.ReorderDepth ||
		p.CorruptProb != want.CorruptProb || p.CorruptBits != want.CorruptBits ||
		p.ErrProb != want.ErrProb || p.StallEvery != want.StallEvery ||
		p.StallFrames != want.StallFrames || *p.GE != *want.GE {
		t.Fatalf("kv parse mismatch: %+v", p)
	}

	// JSON round trip through the FaultProfile tags.
	js, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	p2, err := ParseFaultProfile(string(js))
	if err != nil {
		t.Fatalf("ParseFaultProfile(json): %v", err)
	}
	if p2.DropProb != want.DropProb || p2.GE == nil || *p2.GE != *want.GE || p2.StallEvery != want.StallEvery {
		t.Fatalf("json parse mismatch: %+v", p2)
	}

	// Empty is the clean profile.
	clean, err := ParseFaultProfile("")
	if err != nil {
		t.Fatalf("ParseFaultProfile(\"\"): %v", err)
	}
	if clean != (FaultProfile{}) {
		t.Fatalf("empty profile not clean: %+v", clean)
	}

	// Both forms pass the same range checks, and NaN is not a probability.
	for _, bad := range []string{
		"drop=2", "nope=1", "stall=64", "ge=1:2", "depth=x", "drop",
		"drop=nan", "reorder=NaN", "ge=nan:nan:nan:nan", "depth=-1", "stall=-1:2",
		`{"drop":2}`, `{"drop":-1,"dup":5}`, `{"ge":{"good2bad":2}}`, `{"stall_every":-4}`,
	} {
		if p, err := ParseFaultProfile(bad); err == nil {
			t.Fatalf("ParseFaultProfile(%q) succeeded: %+v", bad, p)
		}
	}
}

// FuzzParseFaultProfile: no panic on arbitrary bytes, and accepted profiles
// must be in range and usable by a FaultTransport.
func FuzzParseFaultProfile(f *testing.F) {
	f.Add("drop=0.05,dup=0.02,reorder=0.1,depth=4")
	f.Add("ge=0.05:0.3:0.02:0.9,stall=64:8")
	f.Add(`{"drop":0.1,"ge":{"good2bad":0.1,"bad2good":0.5,"goodloss":0,"badloss":1}}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParseFaultProfile(in)
		if err != nil {
			return
		}
		if err := p.validate(); err != nil {
			t.Fatalf("accepted profile %q is out of range: %v", in, err)
		}
		a, b, err := NewPipePair(0, 1)
		if err != nil {
			t.Fatalf("NewPipePair: %v", err)
		}
		defer a.Close()
		defer b.Close()
		tr := NewFaultTransport(a, p, FaultProfile{}, 1)
		for i := 0; i < 4; i++ {
			_ = tr.Send([]byte{1, 2, 3, 4})
		}
		buf := make([]byte, MaxFrameSize)
		for {
			if _, err := b.Receive(buf, 0); err != nil {
				break
			}
		}
	})
}
