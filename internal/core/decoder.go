package core

import (
	"fmt"
	"math"

	"spinal/internal/constellation"
	"spinal/internal/hash"
)

// BeamDecoder is the practical "graceful scale-down" decoder of §3.2. At each
// level of the decoding tree it expands every surviving node into 2^k
// children by replaying the encoder's hash, adds the distance between the
// replayed symbols and the received symbols to the path cost, and keeps only
// the B lowest-cost nodes. With an unbounded beam it is the exact ML decoder
// of Eq. 4.
//
// Levels for which no symbols have been received (punctured spine values) are
// expanded without pruning, up to B·2^k nodes (clamped), so that later
// observations can still disambiguate them; this is what allows decoding from
// fewer than n/k symbols and therefore rates above k bits/symbol.
//
// Every Decode is a search from the root over the observations the
// container holds at that moment: the decoder carries nothing from one call
// to the next but reusable buffers, so its result depends only on the
// observations and the decoder's configuration, and decoding the same
// container twice costs twice the work.
//
// A decode runs entirely on its caller's goroutine, and a decoder is not safe
// for concurrent use. Concurrency comes from decoding different messages at
// once, each on its own decoder: the link receiver's decode workers and the
// simulator's trial workers.
//
// Search state lives in a structure-of-arrays engine (see engine.go). Path
// costs are float64: squared Euclidean distance on AWGN, Hamming distance on
// the BSC.
type BeamDecoder struct {
	p       Params
	b       int
	maxCand int
	family  hash.Family
	mapper  constellation.Mapper
	// dimTab is the mapper's per-dimension coordinate table of 2^c entries
	// (nil for custom mappers that do not expose one). The cost folds use it
	// to replace the per-symbol Mapper.Map interface call with two array
	// loads — the same float64 values, so decodes are unchanged.
	dimTab []float64
	// search is the tree-search strategy (see search.go); the zero value is
	// the exact search.
	search SearchMode

	nodesExpanded int
	nodesSaved    int

	eng *engine

	// Reusable coster values, so Decode does not allocate one per call when
	// it passes them through the levelCoster interface.
	awgnC awgnCoster
	bscC  bscCoster
}

// unlimited is the beam width used by the ML decoder.
const unlimited = math.MaxInt32

// maxCandCap clamps the unobserved-level cap B·2^k of practical decoders:
// an unobserved (punctured) level is expanded without pruning, and without
// the clamp a wide beam with a large k would retain millions of nodes.
// NewMLDecoder bypasses it.
const maxCandCap = 1 << 16

// NewBeamDecoder returns a decoder with the given beam width B (the maximum
// number of tree nodes retained per level). The cap on retained nodes at
// unobserved levels is B·2^k, clamped to maxCandCap.
func NewBeamDecoder(p Params, beamWidth int) (*BeamDecoder, error) {
	maxCand := beamWidth << uint(p.K)
	if maxCand > maxCandCap || maxCand <= 0 {
		maxCand = maxCandCap
	}
	return newBeamDecoder(p, beamWidth, maxCand)
}

// NewMLDecoder returns the exact maximum-likelihood decoder: a beam decoder
// that never prunes, at any level. Its complexity is exponential in the
// message length, so it is practical only for short messages; it exists as
// the reference the practical decoder scales down from.
func NewMLDecoder(p Params) (*BeamDecoder, error) {
	return newBeamDecoder(p, unlimited, unlimited)
}

// newBeamDecoder is the shared constructor; maxCand is taken as given so that
// the unlimited (ML) case needs no clamp workarounds.
func newBeamDecoder(p Params, beamWidth, maxCand int) (*BeamDecoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if beamWidth < 1 {
		return nil, fmt.Errorf("core: beam width must be >= 1, got %d", beamWidth)
	}
	mapper, err := p.mapper()
	if err != nil {
		return nil, err
	}
	d := &BeamDecoder{
		p:       p,
		b:       beamWidth,
		maxCand: maxCand,
		family:  p.family(),
		mapper:  mapper,
	}
	if tm, ok := mapper.(constellation.TableMapper); ok && len(tm.DimTable()) == 1<<p.C {
		d.dimTab = tm.DimTable()
	}
	d.eng = newEngine(d)
	return d, nil
}

// SetParallelism does nothing: every decode runs on its caller's goroutine.
//
// Deprecated: it remains only because the linkbench replay still calls it,
// and it is deleted together with link.DataFrame.Version in the next change
// to the benchmark.
func (d *BeamDecoder) SetParallelism(int) {}

// BeamWidth returns the configured beam width B.
func (d *BeamDecoder) BeamWidth() int { return d.b }

// NodesExpanded reports the number of tree nodes expanded (one hash
// evaluation plus a full cost computation each) by the most recent Decode
// call; it is the decoder's computational cost in the paper's unit of work.
func (d *BeamDecoder) NodesExpanded() int { return d.nodesExpanded }

// NodesSaved reports the estimated number of child expansions the most
// recent Decode call avoided through approximate search: each node the
// bubble cap dropped from an unobserved level would have spawned a full
// block of children at the next level. Always zero under the exact search.
func (d *BeamDecoder) NodesSaved() int { return d.nodesSaved }

// DecodeResult is the outcome of one decode attempt.
type DecodeResult struct {
	// Message is the most likely message found, packed LSB-first.
	Message []byte
	// Cost is the accumulated distance of the returned message's symbols to
	// the observations (squared Euclidean for AWGN, Hamming for BSC).
	Cost float64
	// NodesExpanded is the number of decoding-tree nodes evaluated (hash
	// replay plus full cost) in this attempt.
	NodesExpanded int
	// NodesSaved is the estimated number of child expansions avoided by
	// approximate search (see BeamDecoder.NodesSaved); zero in exact mode.
	NodesSaved int
}

// Decode runs the beam search against AWGN-channel observations and returns
// the most likely message under the received symbols so far.
func (d *BeamDecoder) Decode(obs *Observations) (*DecodeResult, error) {
	if obs == nil {
		return nil, fmt.Errorf("core: nil observations")
	}
	if obs.NumSegments() != d.p.NumSegments() {
		return nil, fmt.Errorf("core: observations sized for %d segments, decoder for %d",
			obs.NumSegments(), d.p.NumSegments())
	}
	c := &d.awgnC
	c.d, c.obs, c.tab = d, obs, d.dimTab
	out := d.eng.run(c)
	c.obs = nil // do not pin the container between decodes
	return out, nil
}

// DecodeBits runs the beam search against binary-channel observations using
// the Hamming metric, which is the ML rule for the BSC (§3.2).
func (d *BeamDecoder) DecodeBits(obs *BitObservations) (*DecodeResult, error) {
	if obs == nil {
		return nil, fmt.Errorf("core: nil observations")
	}
	if obs.NumSegments() != d.p.NumSegments() {
		return nil, fmt.Errorf("core: observations sized for %d segments, decoder for %d",
			obs.NumSegments(), d.p.NumSegments())
	}
	c := &d.bscC
	c.d, c.obs = d, obs
	out := d.eng.run(c)
	c.obs = nil
	return out, nil
}

// foldChunk is the number of spines the cost kernels walk together. A
// chunk's expansion words live in a buffer of this size on the coster, so a
// fold allocates nothing.
const foldChunk = 64

// noWord marks a chunk whose word buffer holds no expansion word yet; word
// indices are 32-bit, so it matches none.
const noWord = ^uint64(0)

// awgnCoster is the exact float64 squared-Euclidean metric for AWGN
// observations. prepareLevel stages the level's received coordinates and
// the bit offset 2c·pass at which each pass reads the spine expansion,
// computed in 64 bits exactly as the encoder's BitRange computes it.
//
// costMany is observation-major: it walks its spines in chunks of
// foldChunk, and for each observation it runs one loop over the chunk that
// extracts every spine's 2c-bit symbol word from the chunk's expansion
// words and adds the observation's term dI²+dQ² to that spine's sum. The
// expansion words are recomputed, with one batched hash.Family.Words call,
// only when the observation's word index changes (passes read the expansion
// in ascending order, so about once per 64 bits); a pass that straddles two
// words fetches the next words into a second buffer with one Words call,
// has its own loop, and leaves those words in the chunk's buffer. Each loop
// runs over independent spines, so hash replay, table loads and adds of
// different spines overlap instead of waiting on one another, as they would
// in a walk of one spine through all its observations. Every spine still
// receives its terms one at a time in recording order, starting from zero,
// so each cost has exactly the bits of the sequential symbolFor replay. With
// the mapper's per-dimension table a symbol costs two array loads; a custom
// mapper without one goes through Mapper.Map, in loops of its own.
type awgnCoster struct {
	d   *BeamDecoder
	obs *Observations
	tab []float64

	// Per-level scratch staged by prepareLevel: received coordinates and the
	// bit offset of each observation's pass in the spine expansion.
	yI     []float64
	yQ     []float64
	starts []uint

	// w and nw are costMany's expansion-word buffers. They live here,
	// not on its stack, so a call does not zero 1 KiB per parent block.
	w, nw [foldChunk]uint64
}

func (c *awgnCoster) numObs(level int) int { return len(c.obs.spines[level]) }

func (c *awgnCoster) prepareLevel(level int) {
	obs := c.obs.spines[level]
	n := len(obs)
	c.yI = sized(c.yI, n)
	c.yQ = sized(c.yQ, n)
	c.starts = sized(c.starts, n)
	width := 2 * c.d.p.C
	for i := range obs {
		c.yI[i] = real(obs[i].y)
		c.yQ[i] = imag(obs[i].y)
		c.starts[i] = uint(width * obs[i].pass)
	}
}

func (c *awgnCoster) costMany(locals []float64, spines []uint64, level int) {
	clear(locals)
	if len(c.starts) == 0 {
		return
	}
	for lo := 0; lo < len(spines); lo += foldChunk {
		hi := min(lo+foldChunk, len(spines))
		c.foldChunk(locals[lo:hi], spines[lo:hi], c.w[:hi-lo], c.nw[:hi-lo])
	}
}

// foldChunk adds the terms of the level's observations to the sums loc of one
// chunk of spines, with w as the chunk's expansion-word buffer and nw as the
// buffer a straddling pass fetches the next words into.
func (c *awgnCoster) foldChunk(loc []float64, spines, w, nw []uint64) {
	loc, spines, nw = loc[:len(w)], spines[:len(w)], nw[:len(w)]
	fam, mapper, tab := c.d.family, c.d.mapper, c.tab
	m := uint(len(tab) - 1) // len(tab) == 2^c, so m masks one dimension
	cc := uint(c.d.p.C)
	width := 2 * cc
	wmask := uint64(1)<<width - 1
	wi := noWord // index of the expansion word held in w
	for i := range c.starts {
		start := c.starts[i]
		idx, off := uint32(start/64), start%64
		if uint64(idx) != wi {
			fam.Words(w, spines, idx)
			wi = uint64(idx)
		}
		// Shift counts are masked to 63, so the compiler emits bare shifts;
		// a non-empty table lets it drop the bounds checks on its loads.
		// The table and custom-mapper loops are separate, so the table loop
		// carries no per-spine branch or interface call.
		yI, yQ := c.yI[i], c.yQ[i]
		if off+width <= 64 {
			sh := (64 - off - width) & 63
			if len(tab) != 0 {
				for j, x := range w {
					s := uint(x >> sh & wmask)
					dI := yI - tab[s>>(cc&31)&m]
					dQ := yQ - tab[s&m]
					loc[j] += dI*dI + dQ*dQ
				}
			} else {
				for j, x := range w {
					p := mapper.Map(uint32(x >> sh & wmask))
					dI, dQ := yI-real(p), yQ-imag(p)
					loc[j] += dI*dI + dQ*dQ
				}
			}
			continue
		}
		// The pass straddles into the next word: fetch the chunk's next
		// words in one batch, fold, and keep them in w, since later passes
		// start there.
		hiBits := 64 - off
		loBits := (width - hiBits) & 63
		loShift := (64 - loBits) & 63
		hiMask := uint64(1)<<hiBits - 1
		fam.Words(nw, spines, idx+1)
		if len(tab) != 0 {
			for j, x := range nw {
				s := uint((w[j]&hiMask)<<loBits | x>>loShift)
				dI := yI - tab[s>>(cc&31)&m]
				dQ := yQ - tab[s&m]
				loc[j] += dI*dI + dQ*dQ
			}
		} else {
			for j, x := range nw {
				p := mapper.Map(uint32((w[j]&hiMask)<<loBits | x>>loShift))
				dI, dQ := yI-real(p), yQ-imag(p)
				loc[j] += dI*dI + dQ*dQ
			}
		}
		copy(w, nw)
		wi = uint64(idx + 1)
	}
}

// bscCoster is the exact Hamming metric for binary-channel observations,
// folded observation-major like the AWGN metric: pass p's coded bit is bit
// p%64 (MSB-first) of word p/64 of the expansion, and for each observation
// the chunk's words are recomputed only when that word index changes.
type bscCoster struct {
	d   *BeamDecoder
	obs *BitObservations

	// w is costMany's expansion-word buffer, kept off its stack like
	// awgnCoster's.
	w [foldChunk]uint64
}

func (c *bscCoster) numObs(level int) int { return len(c.obs.spines[level]) }

func (c *bscCoster) prepareLevel(level int) {}

func (c *bscCoster) costMany(locals []float64, spines []uint64, level int) {
	clear(locals)
	obs := c.obs.spines[level]
	if len(obs) == 0 {
		return
	}
	fam := c.d.family
	for lo := 0; lo < len(spines); lo += foldChunk {
		hi := min(lo+foldChunk, len(spines))
		ws, loc, sp := c.w[:hi-lo], locals[lo:hi], spines[lo:hi]
		loc = loc[:len(ws)]
		wi := noWord
		for i := range obs {
			p := uint(obs[i].pass)
			if idx := uint32(p / 64); uint64(idx) != wi {
				fam.Words(ws, sp, idx)
				wi = uint64(idx)
			}
			// A mismatch adds 1, a match adds 0: the same sums as counting.
			sh, bit := 63-p%64, uint64(obs[i].bit)
			for j, x := range ws {
				loc[j] += float64(x>>sh&1 ^ bit)
			}
		}
	}
}
