package core

import (
	"math"
	"slices"
)

// This file is the beam decoder's search engine. The data layout is
// structure-of-arrays end to end: frontiers are parallel slices of spine
// values, path costs and packed (parent, seg) keys, and cached child
// expansions are parallel spine/local-cost slices whose (parent, seg)
// identity is implied by the parent-major index — so the expansion and
// selection loops run flat over dense arrays instead of chasing per-node
// structs.
//
// Selection is candidate-buffered quickselect rather than a bounded heap:
// expansion loops append (cost, key, spine) candidates — after a warm-up, a
// single predictable bound test rejects most of them — and the buffer is
// compacted to the keep-smallest set with an in-place quickselect when it
// fills. Only the surviving <= keep nodes of a level are ever fully sorted
// (by key, to canonicalize the frontier). All of this is
// membership-equivalent to the previous heapsort selector: the strict
// (cost, parent, seg) total order has no ties, so the keep-smallest set of a
// level is unique no matter which algorithm retains it.

// cand is one selection candidate: a child's reconstituted path cost, its
// packed (parent, seg) identity, and its spine value. key orders candidates
// exactly like the (parent, seg) tie-break: parent in the high bits, segment
// in the low 16 (segments are at most 2^16 because k <= 16).
type cand struct {
	cost  float64
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
// independent of the order in which they are offered.
func candLess(a, b *cand) bool {
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
type selector struct {
	keep  int
	limit int
	nodes []cand
	// boundCost and boundKey are the cost and key of the keep-th smallest
	// candidate of the last compaction. Before the first one they are +Inf
	// and math.MaxInt64, which reject nothing: no cost exceeds +Inf, and the
	// one key they reject at equal cost is above every packKey.
	boundCost float64
	boundKey  int64
}

func newSelector(keep, need int) *selector {
	s := &selector{}
	s.reset(keep, need)
	return s
}

// reset empties the selector for a level that will offer need candidates and
// sets its retention bound, keeping the underlying buffer.
//
// The compaction threshold is the warm-up: until the first compaction there
// is no rejection bound, so every offer is pushed. It is twice the beam,
// raised to an eighth of the level so small beams amortize compaction, and
// that eighth is capped at 128: a floor of 1024 pushed a quarter of a
// 4096-child level before any candidate could be rejected, and at 128
// linkbench awgn-link (K=8, B=16, 2 vCPUs) fell from 13.2 to 11.5 ms per
// message, 10 of 12 alternating pairs. Sizing it to the level matters on
// small ones: a K=4, B=1 level of 16 children gets its bound after 2 of them
// instead of pushing all 16 and sorting them at the end.
func (s *selector) reset(keep, need int) {
	s.keep = keep
	limit := max(2*keep, min(128, need/8))
	if keep >= unlimited {
		limit = int(^uint(0) >> 1) // ML decoder: never compact
	}
	s.limit = limit
	s.nodes = s.nodes[:0]
	s.boundCost, s.boundKey = math.Inf(1), math.MaxInt64
}

// offer considers one candidate. The bound test is exact, not heuristic: a
// candidate no smaller than the current keep-th smallest can never be in the
// final keep-smallest set. The rejection path is kept small enough to inline
// into the expansion loops — at steady state most candidates die on this one
// predictable compare — with the accept path split into push.
func (s *selector) offer(n cand) {
	// The condition is !candLess(n, bound), expanded so the rejection path
	// fits the inlining budget.
	if n.cost > s.boundCost || (n.cost == s.boundCost && n.key >= s.boundKey) {
		return
	}
	s.push(n)
}

// push appends an accepted candidate, compacting when the buffer fills.
// Kept out of line so offer stays under the inlining budget — the rejection
// compare is the per-candidate steady state, the append is not.
//
//go:noinline
func (s *selector) push(n cand) {
	s.nodes = append(s.nodes, n)
	if len(s.nodes) >= s.limit {
		s.compact()
	}
}

// compact quickselects the buffer down to the keep smallest candidates and
// tightens the rejection bound to their maximum.
func (s *selector) compact() {
	if len(s.nodes) <= s.keep {
		return
	}
	selectSmallest(s.nodes, s.keep)
	s.nodes = s.nodes[:s.keep]
	s.boundCost, s.boundKey = s.nodes[s.keep-1].cost, s.nodes[s.keep-1].key
}

// canonical compacts to the final keep-smallest set and sorts it by key —
// (parent, seg), the deterministic generation order of a level's children.
// Unlike cost order it does not depend on the cost values, so a frontier
// whose membership is unchanged between attempts compares structurally equal
// even though every cost moved. This is the only full sort on the selection
// path, and it touches at most the surviving `keep` nodes.
func (s *selector) canonical() []cand {
	if len(s.nodes) > s.keep {
		selectSmallest(s.nodes, s.keep)
		s.nodes = s.nodes[:s.keep]
	}
	slices.SortFunc(s.nodes, func(a, b cand) int {
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
func selectSmallest(a []cand, k int) {
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
type frontier struct {
	spine []uint64
	cost  []float64
	key   []int64
}

func (f *frontier) len() int { return len(f.spine) }

func (f *frontier) clear() {
	f.spine, f.cost, f.key = f.spine[:0], f.cost[:0], f.key[:0]
}

func (f *frontier) parent(i int) int32 { return int32(f.key[i] >> 16) }
func (f *frontier) seg(i int) uint16   { return uint16(f.key[i] & 0xffff) }

// setFromCands replaces the frontier contents with a selection output
// (already in canonical key order), reusing the backing arrays.
func (f *frontier) setFromCands(nodes []cand) {
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
func (f *frontier) sameAsCands(nodes []cand) bool {
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
type cachedLevel struct {
	// childSpine/childLocal are the full expansion of the parent frontier;
	// childObs observations at this level are folded into each child's local
	// cost. valid reports whether they correspond to the frontier the level
	// was last expanded from.
	childSpine []uint64
	childLocal []float64
	childObs   int
	valid      bool
	// front is the selection output of the latest attempt at this level;
	// prev is the one before it (the frontier the next level's cached
	// children were expanded from). The two are swapped, not copied, when
	// the level is re-selected.
	front frontier
	prev  frontier
}

// maxCachedChildren bounds the memory the workspace spends per level: an
// unobserved level expanded from a maxCand-wide parent frontier can produce
// maxCand·2^k children, far more than is worth materializing. A level whose
// expansion exceeds the bound is not retained: each children block passes
// through a one-block buffer into the selector and is discarded,
// so the next attempt expands the level afresh. It is a variable only so
// tests can lower it.
var maxCachedChildren = 1 << 17

// workspace is the persistent state that makes repeated decode attempts
// incremental. It is owned by one engine and keyed to one observation
// container at a time.
type workspace struct {
	// obs identifies the observation container the cached state was built
	// from; a different container (or channel kind) resets the workspace.
	obs any
	// gen is the container generation at the end of the last attempt.
	gen uint64
	// epoch is the container epoch of the last attempt; a Reset starts a new
	// epoch, after which cached cost sums no longer describe the contents.
	epoch uint64
	// levels caches frontiers and expansions per tree level.
	levels []cachedLevel
	// complete reports that the last attempt ran to completion, making the
	// cached state trustworthy.
	complete bool
	// sel is the reusable top-keep selector.
	sel selector
	// segs is the reusable backtrack buffer.
	segs []uint64
	// scratchSpine/scratchLocal are the reusable assembly buffers of a level
	// rebuilt from spine-matched blocks; they swap places with the level's
	// cached arrays.
	scratchSpine []uint64
	scratchLocal []float64
	// pidx is a reusable spine→index table over a parent frontier (at most
	// MaxCandidates entries), used to match persisting parents between
	// attempts so their children blocks can be reused wholesale.
	pidx spineIndex
	// scr is the expansion scratch.
	scr expandScratch
}

// invalidate discards all cached state (the buffers are kept for reuse).
func (ws *workspace) invalidate() {
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
func (ws *workspace) prepare(obs any, epoch, cleanGen uint64, dirty, nseg int) int {
	if len(ws.levels) != nseg {
		ws.levels = make([]cachedLevel, nseg)
		ws.complete = false
		ws.obs = nil
	}
	if ws.obs != obs || !ws.complete || epoch != ws.epoch {
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
// tree level. costTailMany extends the accumulated local cost of each spine
// in a batch with the terms of observations idx >= from, folded one term at a
// time in recording order; a full fold starts from zeroed locals with
// from = 0. The incremental refresh
// extends cached sums with exactly the additions a from-scratch fold would
// perform, in the same order — that is what makes incremental and
// from-scratch decodes bit-identical. (Batch order across spines is
// irrelevant: each spine's fold is independent.) Batching keeps the
// engine-to-coster interface dispatch off the per-child path: the engine
// issues one call per contiguous block of children, and the coster keeps its
// per-level state in registers across the block. prepareLevel runs before a
// level is expanded and may stage per-level scratch on the coster (flattened
// observation arrays) for costTailMany to read.
type levelCoster interface {
	numObs(level int) int
	prepareLevel(level int)
	costTailMany(locals []float64, spines []uint64, level, from int)
}

// expandScratch is the one-block buffer a children block passes through
// when its level is not retained.
type expandScratch struct {
	spine []uint64
	local []float64
}

// levelJob is the level expansion in flight: its per-level inputs, and
// where each parent's children block comes from and where it goes (see
// expandLevel).
type levelJob struct {
	coster levelCoster
	lv     *cachedLevel
	parent *frontier
	t      int
	nObs   int
	nSeg   int
	// inPlace: every block is lv's cached block at the same index.
	inPlace bool
	// match: a parent found by spine in the workspace's pidx reuses its
	// cached block.
	match bool
	// outSpine/outLocal receive the blocks at their parent-major offsets;
	// nil streams them through the workspace's one-block buffer.
	outSpine []uint64
	outLocal []float64
}

// engine is the beam search state: the workspace and the root frontier. The
// decoder owns one engine.
type engine struct {
	d *BeamDecoder

	ws   workspace
	root frontier
}

// newEngine returns an engine whose root frontier is the virtual level -1:
// the single root node with the agreed initial spine value s0 = 0, zero
// cost, and parent index -1.
func newEngine(d *BeamDecoder) *engine {
	return &engine{
		d: d,
		root: frontier{
			spine: []uint64{0},
			cost:  []float64{0},
			key:   []int64{packKey(-1, 0)},
		},
	}
}

// run executes the level-by-level beam search, resuming from the first dirty
// level when the workspace holds a completed previous attempt for the same
// observation container.
func (e *engine) run(coster levelCoster, obs any, gen, epoch, cleanGen uint64, dirty int) *DecodeResult {
	d := e.d
	nseg := d.p.NumSegments()
	ws := &e.ws
	start := ws.prepare(obs, epoch, cleanGen, dirty, nseg)
	d.nodesExpanded = 0
	d.nodesRefreshed = 0
	d.nodesSaved = 0

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
		need := parent.len() * nSeg
		ws.sel.reset(keep, need)
		j := &levelJob{coster: coster, lv: lv, parent: parent, t: t, nObs: nObs, nSeg: nSeg}
		switch {
		case parentOK && lv.valid:
			// The cached expansion lines up index for index: fold in only the
			// observations that arrived since the last attempt. Symbols for
			// passes already folded in are never recomputed, and no hash is
			// replayed.
			j.inPlace = true
			j.outSpine, j.outLocal = lv.childSpine, lv.childLocal

		case need <= maxCachedChildren:
			// The parent frontier changed structurally, so the cached
			// expansion no longer lines up index for index. But a parent
			// that persisted (same spine value) still produces the exact
			// same children block — child spines and this level's
			// observation costs depend only on the parent spine — so index
			// the old parents by spine and reuse their blocks, rebuilding the
			// level into the scratch arrays, which then swap in as its cache.
			// Without a match every block is fresh and the level is rebuilt
			// in its own arrays.
			j.match = lv.valid && oldParent.len() > 0 && len(lv.childSpine) == oldParent.len()*nSeg
			spine, local := lv.childSpine, lv.childLocal
			if j.match {
				ws.pidx.reset(oldParent.len())
				for i, s := range oldParent.spine {
					ws.pidx.put(s, int32(i))
				}
				spine, local = ws.scratchSpine, ws.scratchLocal
			}
			j.outSpine, j.outLocal = sized(spine, need), sized(local, need)

		default:
			// Over the cache bound: stream the blocks through the selector
			// without retaining them.
			lv.valid = false
		}
		x, r := e.expandLevel(j)
		d.nodesExpanded += x
		d.nodesRefreshed += r
		if j.match {
			ws.scratchSpine, ws.scratchLocal = lv.childSpine[:0], lv.childLocal[:0]
		}
		if j.outSpine != nil {
			lv.childSpine, lv.childLocal = j.outSpine, j.outLocal
			lv.valid = true
		}
		lv.childObs = nObs

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
		Cost:           leaves.cost[best],
		NodesExpanded:  d.nodesExpanded,
		NodesRefreshed: d.nodesRefreshed,
		NodesSaved:     d.nodesSaved,
	}
}

// expandLevel expands every parent of the level job j into the workspace's
// selector and returns the (freshly expanded, refreshed) node counts. Each
// parent's children block comes from one of three sources:
//
//   - in place (j.inPlace): the cached block at the same index, its cost sums
//     extended with the observations that arrived since the level was last
//     folded — one batched tail fold over the whole level;
//   - matched (j.match): the cached block of the old parent with the same
//     spine value, copied into place and extended the same way;
//   - fresh: hash replay of the parent's children (one batched
//     hash.Family.Children call) with a full cost fold.
//
// Every fold adds the same terms, in recording order, that a from-root fold
// would, so the result does not depend on the source. Blocks land in
// j.outSpine/outLocal at their parent-major offset or, when those are nil,
// in the one-block scratch buffer, which is offered and then overwritten by
// the next parent.
func (e *engine) expandLevel(j *levelJob) (expanded, refreshed int) {
	lv, nSeg := j.lv, j.nSeg
	sel, scr := &e.ws.sel, &e.ws.scr
	scr.spine = sized(scr.spine, nSeg)
	scr.local = sized(scr.local, nSeg)
	n := j.parent.len()
	if j.inPlace && lv.childObs < j.nObs {
		j.coster.costTailMany(j.outLocal[:n*nSeg], j.outSpine[:n*nSeg], j.t, lv.childObs)
	}
	for pi := 0; pi < n; pi++ {
		ps := j.parent.spine[pi]
		blockS, blockL := scr.spine, scr.local
		if j.outSpine != nil {
			off := pi * nSeg
			blockS, blockL = j.outSpine[off:off+nSeg], j.outLocal[off:off+nSeg]
		}
		src := -1
		if j.match {
			if k, ok := e.ws.pidx.get(ps); ok {
				src = int(k) * nSeg
			}
		}
		switch {
		case j.inPlace:
			refreshed += nSeg // folded above
		case src >= 0:
			copy(blockS, lv.childSpine[src:src+nSeg])
			copy(blockL, lv.childLocal[src:src+nSeg])
			j.coster.costTailMany(blockL, blockS, j.t, lv.childObs)
			refreshed += nSeg
		default:
			e.d.family.Children(blockS, ps)
			j.coster.costTailMany(blockL, blockS, j.t, 0) // from = 0 overwrites
			expanded += nSeg
		}
		// Reconstitute each child's path cost (parent cost + local sum) and
		// offer it. offer inlines, so the common rejected candidate costs one
		// compare, no call.
		base := j.parent.cost[pi]
		keyBase := int64(pi) << 16
		for seg, local := range blockL {
			sel.offer(cand{cost: base + local, key: keyBase | int64(seg), spine: blockS[seg]})
		}
	}
	return expanded, refreshed
}
