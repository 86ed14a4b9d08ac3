package core

import (
	"runtime"
	"sync"
)

// This file is the decoder's worker pool: a set of helper goroutines owned by
// one BeamDecoder, across which its engine shards each level expansion (see
// engine.runRegion). The dispatch path allocates nothing at steady state:
// the level job is an engine field rather than a closure, the helpers are
// signalled over empty-struct channels, and the WaitGroup is pooled. That keeps per-symbol decode
// attempts — the link receiver's hot loop — free of GC pressure.
//
// Correctness of sharding rests on the selector's strict total order (see
// candLess): the keep-smallest set of a level is unique, every shard retains
// the keep-smallest subset of its own chunk, and the keep-smallest of the
// union of those subsets equals the keep-smallest of the whole level. Each
// child's cost is computed by exactly the same floating-point operations
// regardless of which shard computes it, so parallel decodes are
// bit-identical to serial ones — same messages, same costs, same node
// accounting — at any worker count.

// minParallelChildren is the smallest level expansion worth sharding; below
// it the dispatch overhead exceeds the expansion work. It is a variable only
// so the determinism tests can force the sharded path on small trees.
var minParallelChildren = 1024

// minShardChildren is the smallest chunk a single shard should receive; the
// effective worker count is capped so no shard gets less. Variable for the
// same testing reason.
var minShardChildren = 256

// SetParallelism sets the number of worker goroutines used to expand each
// level of the decoding tree. Values <= 0 select runtime.GOMAXPROCS(0), the
// default; 1 restores the exact single-threaded path. Results are
// bit-identical at any setting — parallelism changes wall-clock time, never
// the decode.
func (d *BeamDecoder) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n == d.workers {
		return
	}
	d.workers = n
	d.releasePool()
}

// Parallelism reports the configured worker count.
func (d *BeamDecoder) Parallelism() int { return d.workers }

// Close stops the decoder's worker goroutines. The decoder remains usable —
// a later parallel Decode lazily recreates the pool — so Close is purely a
// way to release the helper goroutines promptly instead of waiting for the
// garbage collector's cleanup to do it.
func (d *BeamDecoder) Close() {
	d.releasePool()
}

func (d *BeamDecoder) releasePool() {
	if d.pool != nil {
		d.pool.close()
		d.pool = nil
	}
}

// ensurePool lazily creates the worker pool the engines dispatch regions on.
func (d *BeamDecoder) ensurePool() {
	if d.pool != nil {
		return
	}
	d.pool = newDecodePool(d.workers - 1)
	// Backstop for decoders dropped without Close: once the decoder is
	// unreachable (between regions the pool holds no reference to it), stop
	// its helpers so they do not leak for the process lifetime. Sessions
	// create a decoder per message, so this matters.
	runtime.AddCleanup(d, func(p *decodePool) { p.close() }, d.pool)
}

// workersFor decides how many shards to split `children` work units across:
// the configured parallelism, capped so every shard receives a meaningful
// chunk, and 1 when the level is too small to be worth dispatching.
func (d *BeamDecoder) workersFor(children int) int {
	w := d.workers
	if w <= 1 || children < minParallelChildren {
		return 1
	}
	if maxW := children / minShardChildren; w > maxW {
		w = maxW
	}
	if w <= 1 {
		return 1
	}
	return w
}

// decodePool owns the helper goroutines of one decoder. Helper i (1-based;
// the decoder's own goroutine is worker 0) blocks on a private empty-struct
// channel, so worker identities — and therefore shard workspaces — are
// stable across regions and dispatching allocates nothing. Between regions
// the pool holds no reference to the decoder (body is cleared), which lets a
// runtime cleanup on the decoder reclaim abandoned pools.
type decodePool struct {
	helpers []chan struct{}
	body    func(worker int)
	wg      sync.WaitGroup
	once    sync.Once
}

func newDecodePool(helpers int) *decodePool {
	p := &decodePool{helpers: make([]chan struct{}, helpers)}
	for i := range p.helpers {
		ch := make(chan struct{})
		p.helpers[i] = ch
		id := i + 1
		go func() {
			for range ch {
				p.body(id)
				p.wg.Done()
			}
		}()
	}
	return p
}

// dispatch runs body on workers 0..w-1 — the caller is worker 0 — and
// returns when all have finished. The channel sends publish p.body to the
// helpers; wg.Wait orders their completion before body is cleared.
func (p *decodePool) dispatch(w int, body func(worker int)) {
	p.body = body
	p.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		p.helpers[i-1] <- struct{}{}
	}
	body(0)
	p.wg.Wait()
	p.body = nil
}

// close stops the helper goroutines. Safe to call more than once; must not
// race with dispatch (a decoder is single-consumer by contract).
func (p *decodePool) close() {
	p.once.Do(func() {
		for _, ch := range p.helpers {
			close(ch)
		}
	})
}
