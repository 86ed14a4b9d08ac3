package link

import (
	"fmt"
	"sync"
)

// Arena is a pool of fixed-capacity frame buffers with explicit lease and
// release accounting — the allocator of the GC-free wire path. Every
// outgoing buffer a hot path touches (marshalled data frames, acks) is
// leased from an arena and released when the bytes have been consumed, so
// the steady state recycles a bounded working set instead of creating
// garbage per frame.
//
// Accounting is strict on purpose: releasing a buffer twice panics (it is
// the use-after-free of pooled memory, always a bug), and Close reports an
// error when leases are still outstanding (a leak: some path dropped a
// buffer without releasing it). Stats expose the counters so soak tests can
// assert the ledger balances.
//
// An arena never blocks: leasing beyond the free list allocates a fresh
// buffer (counted as a miss), and releasing beyond maxFree lets the buffer
// go to the garbage collector (counted as a discard), which bounds the idle
// memory a traffic burst can pin.
type Arena struct {
	mu          sync.Mutex
	bufCap      int
	maxFree     int
	free        []*ArenaBuf
	outstanding int
	closed      bool
	stats       ArenaStats
}

// ArenaBuf is one leased buffer. Data has the arena's full buffer capacity;
// callers slice it as needed (append into Data[:0], or fill Data[:n]). The
// storage, not the slice header, is what the arena recycles.
type ArenaBuf struct {
	Data     []byte
	arena    *Arena
	released bool
}

// ArenaStats is the arena's lease/release ledger.
type ArenaStats struct {
	// Leases counts every Lease call; Misses counts the subset that had to
	// allocate because the free list was empty.
	Leases uint64 `json:"leases"`
	Misses uint64 `json:"misses"`
	// Releases counts every Release; Discards counts the subset dropped to
	// the garbage collector because the free list was full (or Data came
	// back with less than the arena's buffer capacity).
	Releases uint64 `json:"releases"`
	Discards uint64 `json:"discards"`
	// Outstanding is the current number of leased-but-unreleased buffers.
	Outstanding int `json:"outstanding"`
	// Free is the current free-list depth.
	Free int `json:"free"`
}

// NewArena returns an arena of bufCap-byte buffers (0 selects the transport
// frame-size limit) keeping at most maxFree (positive) idle buffers.
func NewArena(bufCap, maxFree int) *Arena {
	if bufCap <= 0 {
		bufCap = maxFrameSize
	}
	return &Arena{bufCap: bufCap, maxFree: maxFree}
}

// Lease returns a buffer with len(Data) == cap(Data) == the arena's buffer
// capacity. It panics on a closed arena — leasing after Close is a lifecycle
// bug, not a recoverable condition.
func (a *Arena) Lease() *ArenaBuf {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		panic("link: Lease on a closed arena")
	}
	a.stats.Leases++
	a.outstanding++
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		b.released = false
		b.Data = b.Data[:cap(b.Data)]
		return b
	}
	a.stats.Misses++
	a.mu.Unlock()
	return &ArenaBuf{Data: make([]byte, a.bufCap), arena: a}
}

// Release returns the buffer to its arena. Releasing twice panics. A nil
// receiver is a no-op so conditional reclaim code can release
// unconditionally.
func (b *ArenaBuf) Release() {
	if b == nil {
		return
	}
	a := b.arena
	a.mu.Lock()
	if b.released {
		a.mu.Unlock()
		panic("link: ArenaBuf released twice")
	}
	b.released = true
	a.outstanding--
	a.stats.Releases++
	// Data reassigned to a smaller slice is discarded so a later lease
	// cannot hand out a short buffer.
	if len(a.free) < a.maxFree && cap(b.Data) >= a.bufCap && !a.closed {
		b.Data = b.Data[:cap(b.Data)]
		a.free = append(a.free, b)
	} else {
		a.stats.Discards++
	}
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena's ledger.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.Outstanding = a.outstanding
	s.Free = len(a.free)
	return s
}

// Close drops the free list and reports an error when leases are still
// outstanding — the leak detector of the wire path. Closing twice is
// harmless; buffers released after Close are discarded.
func (a *Arena) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.free = nil
	if a.outstanding != 0 {
		return fmt.Errorf("link: arena closed with %d leased buffers outstanding", a.outstanding)
	}
	return nil
}
