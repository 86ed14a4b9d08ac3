package core

import "sync"

// DecoderPool caches fully constructed (BeamDecoder, Observations) pairs
// keyed by code parameters and beam width, so that a serving path handling
// many concurrent messages — the flow-multiplexed link receiver in
// particular — reuses decoders (and their search buffers) across messages
// and flows instead of rebuilding them per message.
//
// The pool hands decoders out as leases: Lease returns an idle decoder for
// the requested parameters (or builds a fresh one on a miss) and
// LeasedDecoder.Release puts it back. A released pair is reset before it is
// cached — the observation containers are emptied and the search strategy
// reverts to the exact search — so a pooled decoder is bit-identical in
// behaviour to a freshly constructed one; only allocations are recycled. The
// total number of idle decoders is bounded by the pool capacity: releases
// beyond it drop the decoder instead of caching it.
//
// All methods are safe for concurrent use. A capacity of zero or less
// disables caching entirely (every Lease builds, every Release drops),
// which keeps the "pool off" configuration on the exact same code path.
type DecoderPool struct {
	mu       sync.Mutex
	capacity int
	idle     map[poolKey][]*LeasedDecoder
	idleN    int
	stats    PoolStats
}

// DefaultDecoderPoolCapacity is the idle-decoder bound used when a pool is
// constructed with a zero capacity request by higher layers that want "a
// reasonable default" (the link receiver). NewDecoderPool itself takes the
// capacity literally.
const DefaultDecoderPoolCapacity = 64

// poolKey identifies decoders that are interchangeable: same code
// parameters, same hash seed, same constellation mapping, same beam width.
type poolKey struct {
	k, c, messageBits int
	seed              uint64
	mapper            string
	beamWidth         int
}

// PoolStats counts pool traffic; it is reported by Stats for diagnostics,
// experiments and tests.
type PoolStats struct {
	// Hits is the number of leases served from the idle cache.
	Hits uint64 `json:"hits"`
	// Misses is the number of leases that had to build a fresh decoder.
	Misses uint64 `json:"misses"`
	// Discards is the number of releases dropped because the pool was at
	// capacity (the decoder is dropped, not cached).
	Discards uint64 `json:"discards"`
	// Idle is the number of decoders currently cached.
	Idle int `json:"idle"`
	// Outstanding is the number of leases checked out and not yet released.
	// A non-zero count after a consumer claims to have drained is a decoder
	// leak; chaos and shutdown tests gate on it reading zero.
	Outstanding int `json:"outstanding"`
}

// LeasedDecoder is one decoder/observation pair checked out of a
// DecoderPool. The caller owns Dec and Obs exclusively until Release.
type LeasedDecoder struct {
	Dec *BeamDecoder
	Obs *Observations

	key    poolKey
	pool   *DecoderPool
	bitObs *BitObservations
	leased bool
}

// Bits returns the lease's binary observation container, building it on
// first use, so BSC-side consumers can pool decoders exactly like the
// AWGN-side ones. Like Obs, it is reset on Release.
func (l *LeasedDecoder) Bits() (*BitObservations, error) {
	if l.bitObs == nil {
		obs, err := NewBitObservations(l.Dec.p.NumSegments())
		if err != nil {
			return nil, err
		}
		l.bitObs = obs
	}
	return l.bitObs, nil
}

// reset returns the lease to fresh-decoder behaviour: the observation
// containers are cleared and the search strategy reverts to the exact
// search.
func (l *LeasedDecoder) reset() {
	l.Obs.Reset()
	if l.bitObs != nil {
		l.bitObs.Reset()
	}
	l.Dec.search = SearchExact
}

// NewDecoderPool returns a pool that caches up to capacity idle decoders
// across all parameter keys. A capacity <= 0 disables caching.
func NewDecoderPool(capacity int) *DecoderPool {
	return &DecoderPool{capacity: capacity}
}

// keyFor derives the pool key for a parameter set. Params with a nil Mapper
// use the default linear mapping, which is what the key records.
func keyFor(params Params, beamWidth int) poolKey {
	mapper := "linear"
	if params.Mapper != nil {
		mapper = params.Mapper.Name()
	}
	return poolKey{
		k:           params.K,
		c:           params.C,
		messageBits: params.MessageBits,
		seed:        params.Seed,
		mapper:      mapper,
		beamWidth:   beamWidth,
	}
}

// Lease checks a decoder for the given parameters out of the pool, building
// one if no idle decoder matches. The returned lease's Obs container is
// empty and its decoder behaves exactly like a fresh one.
func (p *DecoderPool) Lease(params Params, beamWidth int) (*LeasedDecoder, error) {
	key := keyFor(params, beamWidth)
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		ld := list[len(list)-1]
		p.idle[key] = list[:len(list)-1]
		p.idleN--
		p.stats.Hits++
		p.stats.Outstanding++
		ld.leased = true
		p.mu.Unlock()
		return ld, nil
	}
	p.stats.Misses++
	p.stats.Outstanding++
	p.mu.Unlock()

	unlease := func() {
		p.mu.Lock()
		p.stats.Outstanding--
		p.mu.Unlock()
	}
	dec, err := NewBeamDecoder(params, beamWidth)
	if err != nil {
		unlease()
		return nil, err
	}
	obs, err := NewObservations(params.NumSegments())
	if err != nil {
		unlease()
		return nil, err
	}
	return &LeasedDecoder{Dec: dec, Obs: obs, key: key, pool: p, leased: true}, nil
}

// Release returns the lease to its pool. The lease is reset for the next
// user; if the pool is at capacity the decoder is dropped instead. Release
// is idempotent: returning the same lease twice is a no-op, so eviction
// races in callers cannot double-cache a decoder.
func (l *LeasedDecoder) Release() {
	if l == nil || l.pool == nil {
		return
	}
	p := l.pool
	p.mu.Lock()
	if !l.leased {
		p.mu.Unlock()
		return
	}
	l.leased = false
	p.stats.Outstanding--
	if p.idleN >= p.capacity {
		p.stats.Discards++
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// reset outside the pool lock: clearing a large observation container is
	// not free, and the lease is not reachable from the pool yet.
	l.reset()
	p.mu.Lock()
	if p.idleN >= p.capacity {
		p.stats.Discards++
		p.mu.Unlock()
		return
	}
	if p.idle == nil {
		p.idle = map[poolKey][]*LeasedDecoder{}
	}
	p.idle[l.key] = append(p.idle[l.key], l)
	p.idleN++
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (p *DecoderPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Idle = p.idleN
	return s
}

// Drain drops every idle decoder. Leased decoders are unaffected; they are
// dropped (not cached) when released only if the pool is full, so a drained
// pool simply refills as leases come back.
func (p *DecoderPool) Drain() {
	p.mu.Lock()
	clear(p.idle)
	p.idleN = 0
	p.mu.Unlock()
}
