package core

import "slices"

// This file is the beam decoder's generic search engine, instantiated once
// per cost metric (float64 and int32). The data layout is structure-of-
// arrays end to end: frontiers are parallel slices of spine values, packed
// costs and packed (parent, seg) keys, and cached child expansions are
// parallel spine/local-cost slices whose (parent, seg) identity is implied
// by the parent-major index — so the expansion, refresh and selection loops
// run flat over dense arrays instead of chasing per-node structs.
//
// Selection is candidate-buffered quickselect rather than a bounded heap:
// expansion loops append (cost, key, spine) candidates — after a warm-up, a
// single predictable bound test rejects most of them — and the buffer is
// compacted to the keep-smallest set with an in-place quickselect when it
// fills. Only the surviving <= keep nodes of a level are ever fully sorted
// (by key, to canonicalize the frontier). Per-worker selections are merged
// by concatenation into the global selector followed by one final
// compaction. All of this is membership-equivalent to the previous heapsort
// selector: the strict (cost, parent, seg) total order has no ties, so the
// keep-smallest set of a level is unique no matter which algorithm retains
// it or how the offers were sharded.

// cand is one selection candidate: a child's reconstituted path cost, its
// packed (parent, seg) identity, and its spine value. key orders candidates
// exactly like the (parent, seg) tie-break: parent in the high bits, segment
// in the low 16 (segments are at most 2^16 because k <= 16).
type cand[C costValue] struct {
	cost  C
	key   int64
	spine uint64
}

// packKey builds a candidate key from a parent frontier index and a segment.
func packKey(parent int32, seg uint16) int64 {
	return int64(parent)<<16 | int64(seg)
}

// candLess is the strict total order the beam selection is defined over:
// cost first, then the packed (parent, seg) key as the tie-break. Because
// every (parent, seg) pair is unique within a level the order has no ties,
// so the `keep` smallest candidates of a level are a unique set —
// independent of the order in which they are offered. That independence is
// what makes sharded (parallel) expansion bit-identical to serial expansion:
// each shard retains its own keep-smallest subset, and the keep-smallest of
// the union of those subsets equals the keep-smallest of the whole level.
func candLess[C costValue](a, b *cand[C]) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.key < b.key
}

// selector retains the `keep` smallest candidates (under candLess) offered
// to it. Offers append into a bounded buffer — after the first compaction,
// candidates that cannot beat the current keep-th smallest are rejected with
// a single compare — and compaction quickselects the buffer down to the
// keep-smallest set. Buffers are reused across levels and attempts.
type selector[C costValue] struct {
	keep    int
	limit   int
	nodes   []cand[C]
	bounded bool
	bound   cand[C]
}

func newSelector[C costValue](keep int) *selector[C] {
	s := &selector[C]{}
	s.reset(keep)
	return s
}

// reset empties the selector and sets its retention bound, keeping the
// underlying buffer.
func (s *selector[C]) reset(keep int) {
	s.keep = keep
	limit := 2 * keep
	if limit < 1024 {
		// Amortize compaction for small beams: scanning ~1k candidates per
		// quickselect costs less than per-offer heap maintenance would.
		limit = 1024
	}
	if keep >= unlimited {
		limit = int(^uint(0) >> 1) // ML decoder: never compact
	}
	s.limit = limit
	s.nodes = s.nodes[:0]
	s.bounded = false
}

// offer considers one candidate. The bound test is exact, not heuristic: a
// candidate no smaller than the current keep-th smallest can never be in the
// final keep-smallest set. The rejection path is kept small enough to inline
// into the expansion loops — at steady state most candidates die on this one
// predictable compare — with the accept path split into push.
func (s *selector[C]) offer(n cand[C]) {
	// The condition is !candLess(&n, &s.bound), expanded so the rejection
	// path fits the inlining budget of the generic shape instantiation.
	if s.bounded && (n.cost > s.bound.cost || (n.cost == s.bound.cost && n.key >= s.bound.key)) {
		return
	}
	s.push(n)
}

// push appends an accepted candidate, compacting when the buffer fills.
// Kept out of line so offer stays under the inlining budget — the rejection
// compare is the per-candidate steady state, the append is not.
//
//go:noinline
func (s *selector[C]) push(n cand[C]) {
	s.nodes = append(s.nodes, n)
	if len(s.nodes) >= s.limit {
		s.compact()
	}
}

// compact quickselects the buffer down to the keep smallest candidates and
// tightens the rejection bound to their maximum.
func (s *selector[C]) compact() {
	if len(s.nodes) <= s.keep {
		return
	}
	selectSmallest(s.nodes, s.keep)
	s.nodes = s.nodes[:s.keep]
	s.bound = s.nodes[s.keep-1]
	s.bounded = true
}

// pending returns the buffered candidates (a superset of the final
// selection, at most limit-1 of them) for merging into another selector.
func (s *selector[C]) pending() []cand[C] {
	return s.nodes
}

// canonical compacts to the final keep-smallest set and sorts it by key —
// (parent, seg), the deterministic generation order of a level's children.
// Unlike cost order it does not depend on the cost values, so a frontier
// whose membership is unchanged between attempts compares structurally equal
// even though every cost moved. This is the only full sort on the selection
// path, and it touches at most the surviving `keep` nodes.
func (s *selector[C]) canonical() []cand[C] {
	if len(s.nodes) > s.keep {
		selectSmallest(s.nodes, s.keep)
		s.nodes = s.nodes[:s.keep]
	}
	slices.SortFunc(s.nodes, func(a, b cand[C]) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return 0
		}
	})
	return s.nodes
}

// selectSmallest partially orders a so that a[:k] holds its k smallest
// elements (under candLess) with a[k-1] their maximum. Iterative quickselect
// with median-of-three pivots; small ranges fall through to insertion sort.
// Keys are unique, so there are no equal elements to worry about.
func selectSmallest[C costValue](a []cand[C], k int) {
	lo, hi := 0, len(a)
	target := k - 1
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		if candLess(&a[mid], &a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if candLess(&a[hi-1], &a[mid]) {
			a[hi-1], a[mid] = a[mid], a[hi-1]
			if candLess(&a[mid], &a[lo]) {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo, hi-1
		for i <= j {
			for candLess(&a[i], &pivot) {
				i++
			}
			for candLess(&pivot, &a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j + 1
		case target >= i:
			lo = i
		default:
			return
		}
	}
	ins := a[lo:hi]
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0 && candLess(&ins[j], &ins[j-1]); j-- {
			ins[j], ins[j-1] = ins[j-1], ins[j]
		}
	}
}

// frontier is one level's surviving nodes in structure-of-arrays layout:
// spine values, packed path costs, and packed (parent, seg) keys, all in
// canonical key order.
type frontier[C costValue] struct {
	spine []uint64
	cost  []C
	key   []int64
}

func (f *frontier[C]) len() int { return len(f.spine) }

func (f *frontier[C]) clear() {
	f.spine, f.cost, f.key = f.spine[:0], f.cost[:0], f.key[:0]
}

func (f *frontier[C]) parent(i int) int32 { return int32(f.key[i] >> 16) }
func (f *frontier[C]) seg(i int) uint16   { return uint16(f.key[i] & 0xffff) }

// setFromCands replaces the frontier contents with a selection output
// (already in canonical key order), reusing the backing arrays.
func (f *frontier[C]) setFromCands(nodes []cand[C]) {
	n := len(nodes)
	f.spine = sized(f.spine, n)
	f.cost = sized(f.cost, n)
	f.key = sized(f.key, n)
	for i := range nodes {
		f.spine[i] = nodes[i].spine
		f.cost[i] = nodes[i].cost
		f.key[i] = nodes[i].key
	}
}

// sameAsCands reports whether the frontier holds the same nodes — same
// spine, same (parent, seg) key, in the same order — as a selection output.
// Costs are deliberately not compared: downstream caches reconstruct
// cumulative costs from the parent frontier at selection time, so only
// structural change invalidates them.
func (f *frontier[C]) sameAsCands(nodes []cand[C]) bool {
	if len(f.spine) != len(nodes) {
		return false
	}
	for i := range nodes {
		if f.spine[i] != nodes[i].spine || f.key[i] != nodes[i].key {
			return false
		}
	}
	return true
}

// sized returns s resized to n elements, reallocating only on growth.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cachedLevel is the per-level workspace state retained between attempts.
// The cached child expansion is stored as parallel spine/local-cost slices
// in deterministic parent-major, segment-minor order, so child i's identity
// is (parent i/nSeg, seg i%nSeg) — no per-child parent or segment storage.
type cachedLevel[C costValue] struct {
	// childSpine/childLocal are the full expansion of the parent frontier;
	// childObs observations at this level are folded into each child's local
	// cost. valid reports whether they correspond to the frontier the level
	// was last expanded from.
	childSpine []uint64
	childLocal []C
	childObs   int
	valid      bool
	// front is the selection output of the latest attempt at this level;
	// prev is the one before it (the frontier the next level's cached
	// children were expanded from). The two are swapped, not copied, when
	// the level is re-selected.
	front frontier[C]
	prev  frontier[C]
}

// maxCachedChildren bounds the memory the workspace spends per level: an
// unobserved level expanded from a maxCand-wide parent frontier can produce
// maxCand·2^k children, far more than is worth materializing. Levels whose
// expansion exceeds the bound are re-expanded from scratch on every attempt
// (exactly the pre-incremental behavior) instead of cached.
const maxCachedChildren = 1 << 17

// workspace is the persistent state that makes repeated decode attempts
// incremental. It is owned by one engine and keyed to one observation
// container at a time.
type workspace[C costValue] struct {
	// obs identifies the observation container the cached state was built
	// from; a different container (or channel kind) resets the workspace.
	obs any
	// gen is the container generation at the end of the last attempt.
	gen uint64
	// epoch is the container epoch of the last attempt; a Reset starts a new
	// epoch, after which cached cost sums no longer describe the contents.
	epoch uint64
	// levels caches frontiers and expansions per tree level.
	levels []cachedLevel[C]
	// complete reports that the last attempt ran to completion, making the
	// cached state trustworthy.
	complete bool
	// sel is the reusable top-keep selector.
	sel selector[C]
	// segs is the reusable backtrack buffer.
	segs []uint64
	// scratchSpine/scratchLocal are reusable assembly buffers for rebuilt
	// child expansions.
	scratchSpine []uint64
	scratchLocal []C
	// blockSpine/blockLocal are the reusable one-parent-block buffers of the
	// serial streaming path.
	blockSpine []uint64
	blockLocal []C
	// pidx is a reusable spine→index table over a parent frontier (at most
	// MaxCandidates entries), used to match persisting parents between
	// attempts so their children blocks can be reused wholesale.
	pidx spineIndex
	// fold is the serial path's cost-fold scratch (see foldScratch).
	fold foldScratch
}

// invalidate discards all cached state (the buffers are kept for reuse).
func (ws *workspace[C]) invalidate() {
	ws.obs = nil
	ws.complete = false
	for i := range ws.levels {
		ws.levels[i].valid = false
		ws.levels[i].front.clear()
		ws.levels[i].prev.clear()
	}
}

// prepare sizes the workspace for nseg levels and decides which level the
// beam search must resume from for this attempt.
func (ws *workspace[C]) prepare(obs any, epoch, cleanGen uint64, dirty, nseg int, incremental bool) int {
	if len(ws.levels) != nseg {
		ws.levels = make([]cachedLevel[C], nseg)
		ws.complete = false
		ws.obs = nil
	}
	if !incremental || ws.obs != obs || !ws.complete || epoch != ws.epoch {
		ws.invalidate()
		ws.obs = obs
		return 0
	}
	if cleanGen != ws.gen {
		// The last MarkClean was not ours: another consumer decoded (and
		// cleared the dirty watermark) after observations we have not seen,
		// so the dirty level no longer covers everything that changed since
		// our own last attempt. Forfeit reuse rather than trust it.
		ws.invalidate()
		ws.obs = obs
		return 0
	}
	if dirty > nseg {
		dirty = nseg
	}
	return dirty
}

// levelCoster computes observation costs for hypothesized spine values at a
// tree level, in the engine's cost carrier. costTailMany extends the
// accumulated local cost of each spine in a batch with the terms of
// observations idx >= from, folded one term at a time in recording order; a
// full fold starts from zeroed locals with from = 0. The incremental refresh
// extends cached sums with exactly the additions a from-scratch fold would
// perform, in the same order — that is what makes incremental and
// from-scratch decodes bit-identical. (Batch order across spines is
// irrelevant: each spine's fold is independent.) Batching keeps the
// engine-to-coster interface dispatch off the per-child path: the engine
// issues one call per contiguous block of children, and the coster keeps its
// per-level state in registers across the block.
//
// The concurrency contract: prepareLevel runs single-threaded before a level
// is expanded, and may stage per-level scratch on the coster (flattened
// observation arrays; the quantized costers also snap the level's
// observations onto the integer grid). After prepareLevel, costTailMany only
// reads the coster — the sharded folds call it concurrently — and keeps any
// batch scratch in the caller-owned scr, of which every shard has its own.
type levelCoster[C costValue] interface {
	numObs(level int) int
	prepareLevel(level int)
	costTailMany(locals []C, spines []uint64, level, from int, scr *foldScratch)
}

// foldScratch is batch scratch for a coster's fold, owned by the caller so
// concurrent folds never share it: the engine keeps one per shard and one
// for its serial path.
type foldScratch struct {
	words []uint64
	acc   []int64
}

// Region kinds mirror the three expansion paths of engine.run.
const (
	regionRefresh = iota
	regionRebuild
	regionStream
)

// parRegion describes the parallel region in flight: which expansion path to
// run, its per-level inputs, and the shard geometry. It lives on the engine
// so dispatching a region allocates nothing.
type parRegion[C costValue] struct {
	kind     int
	coster   levelCoster[C]
	lv       *cachedLevel[C]
	parent   *frontier[C]
	t        int
	nObs     int
	nSeg     int
	reuse    bool
	outSpine []uint64
	outLocal []C
	units    int
	chunk    int
	keep     int
}

// parShard is one worker's private per-level workspace, reused across levels
// and attempts.
type parShard[C costValue] struct {
	sel       selector[C]
	expanded  int
	refreshed int
	// blockSpine/blockLocal are this shard's one-parent-block buffers for the
	// streaming path.
	blockSpine []uint64
	blockLocal []C
	fold       foldScratch
}

// block returns the shard's reusable n-sized child block buffers.
func (sh *parShard[C]) block(n int) ([]uint64, []C) {
	sh.blockSpine = sized(sh.blockSpine, n)
	sh.blockLocal = sized(sh.blockLocal, n)
	return sh.blockSpine, sh.blockLocal
}

// block returns the workspace's reusable n-sized child block buffers.
func (ws *workspace[C]) block(n int) ([]uint64, []C) {
	ws.blockSpine = sized(ws.blockSpine, n)
	ws.blockLocal = sized(ws.blockLocal, n)
	return ws.blockSpine, ws.blockLocal
}

// engine is one cost metric's instantiation of the beam search: the
// workspace, the root frontier, and the per-worker shard state. The decoder
// owns one engine per metric it has been asked to run and shares the worker
// pool between them.
type engine[C costValue, O costOps[C]] struct {
	d   *BeamDecoder
	ops O

	ws   workspace[C]
	root frontier[C]

	par       []parShard[C]
	region    parRegion[C]
	shardBody func(worker int)
}

// newEngine returns an engine whose root frontier is the virtual level -1:
// the single root node with the agreed initial spine value s0 = 0, zero
// cost, and parent index -1.
func newEngine[C costValue, O costOps[C]](d *BeamDecoder) *engine[C, O] {
	return &engine[C, O]{
		d: d,
		root: frontier[C]{
			spine: []uint64{0},
			cost:  []C{0},
			key:   []int64{packKey(-1, 0)},
		},
	}
}

// run executes the level-by-level beam search, resuming from the first dirty
// level when the workspace holds a completed previous attempt for the same
// observation container.
func (e *engine[C, O]) run(coster levelCoster[C], obs any, gen, epoch, cleanGen uint64, dirty int) *DecodeResult {
	d := e.d
	nseg := d.p.NumSegments()
	ws := &e.ws
	start := ws.prepare(obs, epoch, cleanGen, dirty, nseg, d.incremental)
	d.nodesExpanded = 0
	d.nodesRefreshed = 0
	d.nodesSaved = 0

	// The bubble cap of the approximate search is decided per level in the
	// single-threaded section of the level loop, so approximate decodes
	// remain bit-identical at every worker count, exactly like exact ones.
	approx := d.search == SearchApprox

	// parentOK tracks whether the previous level's frontier is structurally
	// identical (same spine/parent/seg in the same order) to the one the
	// cached children of the current level were expanded from. At the resume
	// level it holds by construction: everything above the first dirty level
	// is untouched. oldParent is the frontier those children were expanded
	// from, kept for block-level reuse when the structure did change.
	parentOK := true
	oldParent := &e.root
	if start > 0 {
		oldParent = &ws.levels[start-1].front // unchanged above the dirty level
	}
	for t := start; t < nseg; t++ {
		parent := &e.root
		if t > 0 {
			parent = &ws.levels[t-1].front
		}
		lv := &ws.levels[t]
		nObs := coster.numObs(t)
		coster.prepareLevel(t)

		nSeg := 1 << uint(d.p.SegmentBits(t))
		keep := d.b
		if nObs == 0 {
			keep = d.maxCand
			// Bubble cap: under the exact search an unobserved level keeps
			// every candidate (maxCand), because with no local evidence any
			// child might win once observations arrive — and with sparse
			// schedules that breadth, times 2^k children each, dominates the
			// whole session's expansion count. The approximate mode keeps only
			// the children of the W cheapest parents instead. Children of a
			// parent all inherit its path cost, so top-(W*nSeg) selection is
			// exactly "children of the W cheapest parents". The cap is
			// lossless on every attempt that can succeed: no decode can pass
			// the CRC while a level is unobserved (its segment would be a
			// blind guess) except by chance, and a level's first observation
			// makes it dirty, so the resume re-selects it and everything
			// below it. Once every level is observed no capped frontier
			// survives, and the decode equals the exact one. The last level
			// is left alone: nothing is expanded from it.
			if approx && t < nseg-1 {
				keep = min(keep, bubbleParents(d.b)*nSeg)
			}
		}
		ws.sel.reset(keep)

		switch {
		case parentOK && lv.valid:
			// Cached expansion: fold in only the observations that arrived
			// since the last attempt, one term at a time so the running sum
			// stays bit-identical to a from-scratch fold. Symbols for passes
			// already folded in are never recomputed, and no hash is replayed.
			if w := d.workersFor(len(lv.childSpine)); w > 1 {
				e.runRegion(w, parRegion[C]{kind: regionRefresh, coster: coster, lv: lv,
					parent: parent, t: t, nObs: nObs, nSeg: nSeg,
					units: len(lv.childSpine), keep: keep})
			} else {
				_, cb := ws.block(nSeg)
				d.nodesRefreshed += e.refreshRange(coster, lv, parent, t, nObs, nSeg, 0, len(lv.childSpine), &ws.sel, &ws.fold, cb)
			}
			lv.childObs = nObs

		case d.incremental && parent.len()*nSeg <= maxCachedChildren:
			// The parent frontier changed structurally, so the cached
			// expansion no longer lines up index-for-index. But a parent
			// that persisted (same spine value) still produces the exact
			// same children block — child spines and this level's
			// observation costs depend only on the parent spine — so index
			// the old parents by spine and reuse whole blocks, extending
			// their cost sums term by term to the current observations.
			// Only children of genuinely new parents are expanded by hash
			// replay with a full cost computation.
			reuse := lv.valid && oldParent.len() > 0 && len(lv.childSpine) == oldParent.len()*nSeg
			if reuse {
				ws.pidx.reset(oldParent.len())
				for i, s := range oldParent.spine {
					ws.pidx.put(s, int32(i))
				}
			}
			need := parent.len() * nSeg
			outSpine := sized(ws.scratchSpine, need)
			outLocal := sized(ws.scratchLocal, need)
			if w := d.workersFor(need); w > 1 {
				e.runRegion(w, parRegion[C]{kind: regionRebuild, coster: coster, lv: lv,
					parent: parent, t: t, nObs: nObs, nSeg: nSeg, reuse: reuse,
					outSpine: outSpine, outLocal: outLocal, units: parent.len(), keep: keep})
			} else {
				_, cb := ws.block(nSeg)
				x, r := e.rebuildRange(coster, lv, parent, t, nObs, nSeg, reuse, 0, parent.len(), outSpine, outLocal, &ws.sel, &ws.fold, cb)
				d.nodesExpanded += x
				d.nodesRefreshed += r
			}
			ws.scratchSpine, lv.childSpine = lv.childSpine[:0], outSpine
			ws.scratchLocal, lv.childLocal = lv.childLocal[:0], outLocal
			lv.childObs = nObs
			lv.valid = true

		default:
			// Over-budget (or non-incremental) expansion: stream children
			// straight through the selector without materializing them —
			// the pre-incremental behavior and memory footprint.
			lv.childSpine = lv.childSpine[:0]
			lv.childLocal = lv.childLocal[:0]
			lv.valid = false
			if w := d.workersFor(parent.len() * nSeg); w > 1 {
				e.runRegion(w, parRegion[C]{kind: regionStream, coster: coster,
					parent: parent, t: t, nSeg: nSeg, units: parent.len(), keep: keep})
			} else {
				bs, bl := ws.block(nSeg)
				d.nodesExpanded += e.streamRange(coster, parent, t, nSeg, 0, parent.len(), &ws.sel, &ws.fold, bs, bl)
			}
			lv.childObs = nObs
		}

		// Canonicalize the selection to (parent, seg) order. The selection
		// buffer's order depends on cost values, so without this step any
		// cost perturbation would reshuffle the frontier and defeat the
		// structural-reuse check above even when the same B nodes survive.
		// The order is deterministic, so from-scratch and incremental runs
		// still agree exactly.
		newNodes := ws.sel.canonical()

		if approx && nObs == 0 && t < nseg-1 {
			// Account the bubble cap's savings against what the exact search
			// would have retained (and the next level expanded).
			full := min(parent.len()*nSeg, d.maxCand)
			if extra := full - len(newNodes); extra > 0 {
				d.nodesSaved += extra * (1 << uint(d.p.SegmentBits(t+1)))
			}
		}

		// Stash this level's previous frontier for the next level's block
		// matching, compare structures, and install the new frontier. If the
		// structure held, the next level's cached children (keyed by parent
		// index and segment) remain valid even though the costs moved.
		parentOK = lv.front.sameAsCands(newNodes)
		lv.prev, lv.front = lv.front, lv.prev
		lv.front.setFromCands(newNodes)
		oldParent = &lv.prev
	}

	// Locate the lowest-cost leaf and walk back up the tree to recover the
	// message segments.
	leaves := &ws.levels[nseg-1].front
	best := 0
	for i := 1; i < leaves.len(); i++ {
		if leaves.cost[i] < leaves.cost[best] {
			best = i
		}
	}
	if cap(ws.segs) < nseg {
		ws.segs = make([]uint64, nseg)
	}
	segs := ws.segs[:nseg]
	idx := best
	for t := nseg - 1; t >= 0; t-- {
		f := &ws.levels[t].front
		segs[t] = uint64(f.seg(idx))
		idx = int(f.parent(idx))
	}
	msg := packSegments(d.p, segs)

	ws.gen = gen
	ws.epoch = epoch
	ws.complete = true
	return &DecodeResult{
		Message:        msg,
		Cost:           float64(leaves.cost[best]),
		NodesExpanded:  d.nodesExpanded,
		NodesRefreshed: d.nodesRefreshed,
		NodesSaved:     d.nodesSaved,
	}
}

// refreshRange is the cached-expansion path for children [lo, hi): extend
// each cached child's local cost sum with the observation terms that arrived
// since the level was last folded, then offer the reconstituted path costs.
// Each child's sum is extended term by term in recording order — the exact
// same additions a from-scratch fold would perform — so the result does not
// depend on how the range was sharded. The two phases are separate flat
// loops over the parallel child arrays. Returns the number of cached nodes
// reused.
func (e *engine[C, O]) refreshRange(coster levelCoster[C], lv *cachedLevel[C], parent *frontier[C], t, nObs, nSeg, lo, hi int, sel *selector[C], scr *foldScratch, costBuf []C) int {
	if lo >= hi {
		return 0
	}
	if lv.childObs < nObs {
		coster.costTailMany(lv.childLocal[lo:hi], lv.childSpine[lo:hi], t, lv.childObs, scr)
	}
	// Offer path costs parent block by parent block: the layout is
	// parent-major, so (parent, seg) identity is derived from the index. The
	// block's path costs are reconstituted into costBuf in one batched add,
	// and the selector's rejection test is replicated inline (see
	// selector.offer) so the common rejected candidate costs one compare, no
	// call.
	pi := lo / nSeg
	i := lo
	for i < hi {
		end := min((pi+1)*nSeg, hi)
		var base C
		if t > 0 {
			base = parent.cost[pi]
		}
		costs := costBuf[:end-i]
		copy(costs, lv.childLocal[i:end])
		e.ops.AddTo(costs, base)
		keyBase := int64(pi) << 16
		segBase := pi * nSeg
		for bi := 0; i < end; i, bi = i+1, bi+1 {
			cost := costs[bi]
			key := keyBase | int64(i-segBase)
			if sel.bounded && (cost > sel.bound.cost || (cost == sel.bound.cost && key >= sel.bound.key)) {
				continue
			}
			sel.push(cand[C]{cost: cost, key: key, spine: lv.childSpine[i]})
		}
		pi++
	}
	return hi - lo
}

// rebuildRange expands parents [lo, hi) into their children, writing each
// parent's block at its global offset pi*nSeg in outSpine/outLocal and
// offering every child to sel. Parents that persisted from the previous
// frontier (found through the workspace spine index when reuse is set) have
// their cached children blocks reused with a term-by-term cost extension;
// new parents are expanded by hash replay with a full cost fold. Returns
// (freshly expanded, refreshed) node counts.
func (e *engine[C, O]) rebuildRange(coster levelCoster[C], lv *cachedLevel[C], parent *frontier[C], t, nObs, nSeg int, reuse bool, lo, hi int, outSpine []uint64, outLocal []C, sel *selector[C], scr *foldScratch, costBuf []C) (expanded, refreshed int) {
	d := e.d
	costBuf = costBuf[:nSeg]
	for pi := lo; pi < hi; pi++ {
		ps := parent.spine[pi]
		var base C
		if t > 0 {
			base = parent.cost[pi]
		}
		block := -1
		if reuse {
			if j, ok := e.ws.pidx.get(ps); ok {
				block = int(j) * nSeg
			}
		}
		keyBase := int64(pi) << 16
		off := pi * nSeg
		outS := outSpine[off : off+nSeg]
		outL := outLocal[off : off+nSeg]
		if block >= 0 {
			copy(outS, lv.childSpine[block:block+nSeg])
			copy(outL, lv.childLocal[block:block+nSeg])
			coster.costTailMany(outL, outS, t, lv.childObs, scr)
			refreshed += nSeg
		} else {
			for seg := 0; seg < nSeg; seg++ {
				outS[seg] = d.family.Next(ps, uint64(seg))
			}
			coster.costTailMany(outL, outS, t, 0, scr) // from = 0 overwrites
			expanded += nSeg
		}
		// outL is retained as this level's cache, so the path costs are
		// reconstituted into the scratch buffer in one batched add.
		copy(costBuf, outL)
		e.ops.AddTo(costBuf, base)
		for seg := 0; seg < nSeg; seg++ {
			cost := costBuf[seg]
			key := keyBase | int64(seg)
			if sel.bounded && (cost > sel.bound.cost || (cost == sel.bound.cost && key >= sel.bound.key)) {
				continue
			}
			sel.push(cand[C]{cost: cost, key: key, spine: outS[seg]})
		}
	}
	return expanded, refreshed
}

// streamRange expands parents [lo, hi) one parent block at a time through the
// passed block buffers (at least nSeg long) and the selector, without
// retaining the children — the over-budget and non-incremental path. Returns
// the number of nodes expanded.
func (e *engine[C, O]) streamRange(coster levelCoster[C], parent *frontier[C], t, nSeg, lo, hi int, sel *selector[C], scr *foldScratch, blockSpine []uint64, blockLocal []C) int {
	d := e.d
	blockSpine = blockSpine[:nSeg]
	blockLocal = blockLocal[:nSeg]
	for pi := lo; pi < hi; pi++ {
		ps := parent.spine[pi]
		var base C
		if t > 0 {
			base = parent.cost[pi]
		}
		keyBase := int64(pi) << 16
		for seg := 0; seg < nSeg; seg++ {
			blockSpine[seg] = d.family.Next(ps, uint64(seg))
		}
		coster.costTailMany(blockLocal, blockSpine, t, 0, scr) // from = 0 overwrites
		e.ops.AddTo(blockLocal, base)                          // children are not retained, so add in place
		for seg := 0; seg < nSeg; seg++ {
			cost := blockLocal[seg]
			key := keyBase | int64(seg)
			if sel.bounded && (cost > sel.bound.cost || (cost == sel.bound.cost && key >= sel.bound.key)) {
				continue
			}
			sel.push(cand[C]{cost: cost, key: key, spine: blockSpine[seg]})
		}
	}
	return (hi - lo) * nSeg
}

// runRegion executes one sharded level expansion on w workers — the calling
// goroutine is worker 0, the pool helpers take the rest — then merges the
// per-shard selections into the global selector (ws.sel, already reset by
// the level loop) and folds the shard work counters into the decoder
// totals. The merge is concatenation plus the global selector's own
// compaction: under the total order the surviving membership is unique
// whatever the merge order, and the level loop's canonical() sort fixes the
// frontier layout.
func (e *engine[C, O]) runRegion(w int, region parRegion[C]) {
	d := e.d
	if len(e.par) != d.workers {
		e.par = make([]parShard[C], d.workers)
	}
	d.ensurePool()
	if e.shardBody == nil {
		e.shardBody = e.runShard // one closure for the engine's lifetime
	}
	region.chunk = (region.units + w - 1) / w
	e.region = region
	d.pool.dispatch(w, e.shardBody)
	e.region = parRegion[C]{} // do not pin the observation container between attempts
	for i := 0; i < w; i++ {
		sh := &e.par[i]
		for _, n := range sh.sel.pending() {
			e.ws.sel.offer(n)
		}
		d.nodesExpanded += sh.expanded
		d.nodesRefreshed += sh.refreshed
	}
}

// runShard is the body every worker executes: carve this shard's chunk out
// of the region and run the matching range expansion into the shard-private
// selector and counters.
func (e *engine[C, O]) runShard(shard int) {
	rg := &e.region
	sh := &e.par[shard]
	sh.sel.reset(rg.keep)
	sh.expanded, sh.refreshed = 0, 0
	lo := min(shard*rg.chunk, rg.units)
	hi := min(lo+rg.chunk, rg.units)
	switch rg.kind {
	case regionRefresh:
		_, cb := sh.block(rg.nSeg)
		sh.refreshed = e.refreshRange(rg.coster, rg.lv, rg.parent, rg.t, rg.nObs, rg.nSeg, lo, hi, &sh.sel, &sh.fold, cb)
	case regionRebuild:
		_, cb := sh.block(rg.nSeg)
		sh.expanded, sh.refreshed = e.rebuildRange(rg.coster, rg.lv, rg.parent, rg.t, rg.nObs, rg.nSeg, rg.reuse, lo, hi, rg.outSpine, rg.outLocal, &sh.sel, &sh.fold, cb)
	case regionStream:
		bs, bl := sh.block(rg.nSeg)
		sh.expanded = e.streamRange(rg.coster, rg.parent, rg.t, rg.nSeg, lo, hi, &sh.sel, &sh.fold, bs, bl)
	}
}
