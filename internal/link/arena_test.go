package link

import (
	"sync"
	"testing"
)

func TestArenaLeaseReleaseRecycles(t *testing.T) {
	a := NewArena(128, 4)
	b := a.Lease()
	if len(b.Data) != 128 || cap(b.Data) != 128 {
		t.Fatalf("leased buffer has len %d cap %d, want 128/128", len(b.Data), cap(b.Data))
	}
	b.Data = b.Data[:5] // callers may shorten freely
	b.Release()
	b2 := a.Lease()
	if len(b2.Data) != 128 {
		t.Fatalf("recycled buffer came back short: len %d", len(b2.Data))
	}
	b2.Release()
	s := a.Stats()
	if s.Leases != 2 || s.Misses != 1 || s.Releases != 2 || s.Discards != 0 {
		t.Fatalf("ledger off: %+v", s)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	a := NewArena(64, 2)
	b := a.Lease()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestArenaLeakDetectedAtClose(t *testing.T) {
	a := NewArena(64, 2)
	leaked := a.Lease()
	if err := a.Close(); err == nil {
		t.Fatal("close with an outstanding lease reported no error")
	}
	// A release after close balances the ledger (and is discarded).
	leaked.Release()
	if got := a.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding after late release: %d", got)
	}
}

func TestArenaLeaseAfterClosePanics(t *testing.T) {
	a := NewArena(64, 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lease on a closed arena did not panic")
		}
	}()
	a.Lease()
}

func TestArenaFreeListBounded(t *testing.T) {
	a := NewArena(64, 2)
	bufs := []*ArenaBuf{a.Lease(), a.Lease(), a.Lease(), a.Lease()}
	for _, b := range bufs {
		b.Release()
	}
	s := a.Stats()
	if s.Free != 2 {
		t.Fatalf("free list holds %d buffers, want the bound 2", s.Free)
	}
	if s.Discards != 2 {
		t.Fatalf("discards %d, want 2", s.Discards)
	}
}

// TestArenaSwappedStorage pins Release's capacity check: a lease whose Data
// was reassigned to another full-capacity slice recycles that storage, while
// an undersized replacement is discarded rather than handed to the next
// lease.
func TestArenaSwappedStorage(t *testing.T) {
	a := NewArena(64, 4)
	b := a.Lease()
	b.Data = make([]byte, 64)
	b.Release()
	b2 := a.Lease()
	if len(b2.Data) != 64 {
		t.Fatalf("swapped-in storage came back short: %d", len(b2.Data))
	}
	b2.Data = make([]byte, 8) // undersized swap
	b2.Release()
	if s := a.Stats(); s.Discards != 1 {
		t.Fatalf("undersized swap not discarded: %+v", s)
	}
	b3 := a.Lease()
	if len(b3.Data) != 64 {
		t.Fatalf("lease after undersized swap has len %d", len(b3.Data))
	}
	b3.Release()
}

// TestArenaConcurrent hammers lease/release from many goroutines; run under
// -race this pins the arena's internal synchronization, and the final ledger
// must balance exactly.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena(256, 16)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			held := make([]*ArenaBuf, 0, 4)
			for i := 0; i < perWorker; i++ {
				b := a.Lease()
				b.Data[0] = byte(id) // touch the storage
				held = append(held, b)
				if len(held) == cap(held) || i%3 == 0 {
					for _, h := range held {
						h.Release()
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	s := a.Stats()
	if s.Leases != workers*perWorker || s.Releases != s.Leases {
		t.Fatalf("ledger off after concurrent churn: %+v", s)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("leak after concurrent churn: %v", err)
	}
}
