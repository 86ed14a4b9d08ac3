package core

import (
	"math"
	"slices"
)

// This file is the beam decoder's search engine. The data layout is
// structure-of-arrays end to end: frontiers are parallel slices of spine
// values, path costs and packed (parent, seg) keys, and a parent's children
// block is a pair of spine/local-cost slices whose (parent, seg) identity is
// implied by the index — so the expansion and selection loops run flat over
// dense arrays instead of chasing per-node structs.
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
// The sort fixes each survivor's index in the frontier, and that index is
// the parent index its children carry into the next level's (cost, parent,
// seg) tie-break. Left in the selector's cost-dependent order, tied costs —
// common under the BSC's integer Hamming metric — would break differently,
// and the decoded messages pinned by the goldens with them. This is the only
// full sort on the selection path, and it touches at most the surviving
// `keep` nodes.
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

// sized returns s resized to n elements, reallocating only on growth.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// levelCoster computes observation costs for hypothesized spine values at a
// tree level. costMany sets each spine's local cost in a batch to the sum of
// the level's observation terms, folded one term at a time in recording
// order. (Batch order across spines is irrelevant: each spine's fold is
// independent.) Batching keeps the engine-to-coster interface dispatch off
// the per-child path: the engine issues one call per parent's children
// block, and the coster keeps its per-level state in registers across the
// block. prepareLevel runs before a level is expanded and may stage
// per-level scratch on the coster (flattened observation arrays) for
// costMany to read.
type levelCoster interface {
	numObs(level int) int
	prepareLevel(level int)
	costMany(locals []float64, spines []uint64, level int)
}

// engine is the beam search's reusable state. Every decode runs from the
// root of the tree; what the engine keeps from one decode to the next is
// buffer capacity only. The decoder owns one engine.
type engine struct {
	d *BeamDecoder

	root frontier
	// levels holds each level's selected frontier; the backtrack walks them
	// from the best leaf up.
	levels []frontier
	// sel is the top-keep selector.
	sel selector
	// segs is the backtrack buffer.
	segs []uint64
	// blockSpine/blockLocal hold one parent's children block between its hash
	// replay and its offers.
	blockSpine []uint64
	blockLocal []float64
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

// run executes the level-by-level beam search from the root and backtracks
// from the cheapest leaf.
func (e *engine) run(coster levelCoster) *DecodeResult {
	d := e.d
	nseg := d.p.NumSegments()
	if len(e.levels) != nseg {
		e.levels = make([]frontier, nseg)
	}
	d.nodesExpanded = 0
	d.nodesSaved = 0

	approx := d.search == SearchApprox
	parent := &e.root
	for t := 0; t < nseg; t++ {
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
			// blind guess) except by chance, and every attempt selects every
			// level afresh, so once every level is observed no capped
			// frontier exists and the decode equals the exact one. The last
			// level is left alone: nothing is expanded from it.
			if approx && t < nseg-1 {
				keep = min(keep, bubbleParents(d.b)*nSeg)
			}
		}
		e.sel.reset(keep, parent.len()*nSeg)
		d.nodesExpanded += e.expandLevel(coster, parent, t, nSeg)

		newNodes := e.sel.canonical()

		if approx && nObs == 0 && t < nseg-1 {
			// Account the bubble cap's savings against what the exact search
			// would have retained (and the next level expanded).
			full := min(parent.len()*nSeg, d.maxCand)
			if extra := full - len(newNodes); extra > 0 {
				d.nodesSaved += extra * (1 << uint(d.p.SegmentBits(t+1)))
			}
		}
		e.levels[t].setFromCands(newNodes)
		parent = &e.levels[t]
	}

	// Locate the lowest-cost leaf and walk back up the tree to recover the
	// message segments.
	leaves := &e.levels[nseg-1]
	best := 0
	for i := 1; i < leaves.len(); i++ {
		if leaves.cost[i] < leaves.cost[best] {
			best = i
		}
	}
	e.segs = sized(e.segs, nseg)
	idx := best
	for t := nseg - 1; t >= 0; t-- {
		f := &e.levels[t]
		e.segs[t] = uint64(f.seg(idx))
		idx = int(f.parent(idx))
	}
	return &DecodeResult{
		Message:       packSegments(d.p, e.segs),
		Cost:          leaves.cost[best],
		NodesExpanded: d.nodesExpanded,
		NodesSaved:    d.nodesSaved,
	}
}

// expandLevel expands every parent of level t into the selector and returns
// the number of children it expanded. Each parent's children are hash
// replayed into the one-block buffer (one batched hash.Family.Children
// call), given a full cost fold, and offered; the next parent overwrites
// the buffer.
func (e *engine) expandLevel(coster levelCoster, parent *frontier, t, nSeg int) int {
	e.blockSpine = sized(e.blockSpine, nSeg)
	e.blockLocal = sized(e.blockLocal, nSeg)
	spines, locals := e.blockSpine, e.blockLocal
	sel, fam := &e.sel, e.d.family
	for pi, ps := range parent.spine {
		fam.Children(spines, ps)
		coster.costMany(locals, spines, t)
		// Reconstitute each child's path cost (parent cost + local sum) and
		// offer it. offer inlines, so the common rejected candidate costs one
		// compare, no call.
		base := parent.cost[pi]
		keyBase := int64(pi) << 16
		for seg, local := range locals {
			sel.offer(cand{cost: base + local, key: keyBase | int64(seg), spine: spines[seg]})
		}
	}
	return parent.len() * nSeg
}
