package link

import (
	"testing"

	"spinal/internal/core"
)

// TestAdaptiveSearchPressureLadder drives the budget scheduler's two-rung
// pressure ladder directly: a flow skipped over for being over budget
// accrues pressure and switches from the base strategy to approx for as
// long as any pressure remains; executed picks decay the pressure back down
// so relieved flows relax to the base strategy.
func TestAdaptiveSearchPressureLadder(t *testing.T) {
	e := &flowEngine{
		budget:   100,
		adaptive: true,
		spent:    map[uint32]int64{},
		flowQ:    map[uint32]*flowQueue{},
		pressure: map[uint32]uint64{},
	}
	mk := func(id uint32) *flowQueue {
		fq := &flowQueue{id: id, msgs: []*msgState{{flow: id}}, inRing: true}
		e.flowQ[id] = fq
		e.ring = append(e.ring, fq)
		return fq
	}
	hog := mk(1)
	mk(2)
	e.spent[1] = 500 // over budget relative to flow 2
	e.spent[2] = 10

	if m := e.searchFor(hog.id); m != core.SearchExact {
		t.Fatalf("unpressured flow got mode %v, want the exact base", m)
	}
	// Each pick skips the hog once (one unit of pressure) and executes
	// flow 2. Re-arm flow 2 after every pick so the ring keeps both flows.
	pump := func() {
		fq := e.pickLocked()
		if fq == nil || fq.id != 2 {
			t.Fatalf("picked %+v, want flow 2 while the hog is over budget", fq)
		}
		fq.inRing = true
		e.ring = append(e.ring, fq)
	}
	for e.pressure[hog.id] < 8 {
		pump()
		if m := e.searchFor(hog.id); m != core.SearchApprox {
			t.Fatalf("pressure %d got mode %v, want approx", e.pressure[hog.id], m)
		}
	}

	// Relieve the hog: once it is schedulable again, each executed pick
	// halves its pressure until it relaxes to the base strategy.
	e.spent[1] = 0
	for i := 0; i < 10 && e.pressure[hog.id] > 0; i++ {
		fq := e.pickLocked()
		fq.inRing = true
		e.ring = append(e.ring, fq)
	}
	if m := e.searchFor(hog.id); m != core.SearchExact {
		t.Fatalf("drained flow got mode %v, want the exact base back", m)
	}

	// The attempt counters and saved-node estimate surface via searchStats.
	e.noteSearch(core.SearchApprox, 1000)
	e.noteSearch(core.SearchApprox, 500)
	e.noteSearch(core.SearchExact, 2000)
	attempts, saved := e.searchStats()
	if attempts["approx"] != 2 || attempts["exact"] != 1 || len(attempts) != 2 {
		t.Fatalf("searchStats attempts = %v, want approx=2 exact=1", attempts)
	}
	if saved != 3500 {
		t.Fatalf("searchStats saved = %d, want 3500", saved)
	}
}
