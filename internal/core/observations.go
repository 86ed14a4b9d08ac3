package core

import (
	"fmt"
	"math/cmplx"
)

// validatePositions rejects any position outside a code with nseg spine
// values. It is the shared up-front check of every batch entry point
// (encoder fills and observation appends), so a failed batch can leave its
// target untouched.
func validatePositions(poss []SymbolPos, nseg int) error {
	for _, pos := range poss {
		if pos.Spine < 0 || pos.Spine >= nseg {
			return fmt.Errorf("core: spine index %d out of range [0,%d)", pos.Spine, nseg)
		}
		if pos.Pass < 0 {
			return fmt.Errorf("core: negative pass %d", pos.Pass)
		}
	}
	return nil
}

// validateValues rejects a NaN or infinite received value. Such a value
// would give every path through its spine value a non-finite cost, which
// stays in the decoder's cached sums and breaks the strict (cost, parent,
// seg) order the beam search selects by.
func validateValues(ys []complex128) error {
	for i, y := range ys {
		if cmplx.IsNaN(y) || cmplx.IsInf(y) {
			return fmt.Errorf("core: received value %d is not finite: %v", i, y)
		}
	}
	return nil
}

// Observations accumulates the symbols received so far for one message,
// grouped by the spine value they were generated from. The decoder sums
// per-pass costs over all observations of a spine value (§3.2), so the same
// container naturally supports any number of passes and any puncturing.
//
// The container also tracks which spine values (tree levels) have changed
// since the last decode: DirtyLevel reports the lowest level touched since
// MarkClean, and Generation increments on every mutation. The decoder's
// workspace uses the pair to resume the beam search from the first dirty
// level instead of the root on repeated decode attempts. Dirty tracking is
// designed for one decoding consumer per container (which the sessions, the
// facade and the link receiver all satisfy); a second consumer is detected
// through the MarkClean watermark and costs both decoders their incremental
// reuse, never their correctness.
type Observations struct {
	spines [][]symbolObs
	count  int
	gen    uint64
	epoch  uint64
	dirty  int
	// cleanGen is the generation at which MarkClean last ran. A decoder
	// whose workspace generation disagrees with it knows another consumer
	// consumed (and cleared) dirty state in between, so the dirty level no
	// longer covers everything that changed since its own last attempt.
	cleanGen uint64
}

type symbolObs struct {
	pass int
	y    complex128
}

// NewObservations returns an empty container for a code with nseg spine
// values.
func NewObservations(nseg int) (*Observations, error) {
	if nseg < 1 {
		return nil, fmt.Errorf("core: observations need at least one spine value, got %d", nseg)
	}
	return &Observations{spines: make([][]symbolObs, nseg)}, nil
}

// Add records the received value y for the symbol at pos: AddBatch of one
// symbol, so a NaN or infinite y is rejected the same way.
func (o *Observations) Add(pos SymbolPos, y complex128) error {
	return o.AddBatch([]SymbolPos{pos}, []complex128{y})
}

// AddBatch records one received value per position — a whole frame or pass at
// a time. The batch is validated before anything is recorded (an invalid
// position or a NaN or infinite value leaves the container untouched),
// appends happen in slice order (so a batch add is indistinguishable,
// observation for observation, from the equivalent sequence of Adds), and
// the whole batch costs one generation bump and one dirty-level update
// instead of one per symbol.
func (o *Observations) AddBatch(poss []SymbolPos, ys []complex128) error {
	if len(poss) != len(ys) {
		return fmt.Errorf("core: AddBatch positions length %d != values length %d", len(poss), len(ys))
	}
	if len(poss) == 0 {
		return nil
	}
	if err := validatePositions(poss, len(o.spines)); err != nil {
		return err
	}
	if err := validateValues(ys); err != nil {
		return err
	}
	for i, pos := range poss {
		o.spines[pos.Spine] = append(o.spines[pos.Spine], symbolObs{pass: pos.Pass, y: ys[i]})
		if pos.Spine < o.dirty {
			o.dirty = pos.Spine
		}
	}
	o.count += len(poss)
	o.gen++
	return nil
}

// Count returns the total number of received symbols.
func (o *Observations) Count() int { return o.count }

// Generation returns a counter that increments on every mutation (Add or
// Reset). The decoder compares generations to detect whether anything changed
// between two attempts.
func (o *Observations) Generation() uint64 { return o.gen }

// Epoch returns a counter that increments only on Reset. Within one epoch
// the per-spine observation lists are append-only, which is what lets the
// decoder extend cached per-level cost sums instead of recomputing them; a
// new epoch forces a full rebuild.
func (o *Observations) Epoch() uint64 { return o.epoch }

// DirtyLevel returns the lowest spine index mutated since the last MarkClean,
// or NumSegments() if nothing changed. A fresh container reports level 0 so
// that the first decode runs from the root.
func (o *Observations) DirtyLevel() int { return o.dirty }

// MarkClean resets the dirty watermark; the decoder calls it after folding
// the current observations into its workspace.
func (o *Observations) MarkClean() {
	o.dirty = len(o.spines)
	o.cleanGen = o.gen
}

// NumSegments returns the number of spine values the container was sized for.
func (o *Observations) NumSegments() int { return len(o.spines) }

// PerSpine returns how many symbols have been received for spine value t.
func (o *Observations) PerSpine(t int) int {
	if t < 0 || t >= len(o.spines) {
		return 0
	}
	return len(o.spines[t])
}

// Reset discards all recorded observations, retaining the allocation. The
// whole container becomes dirty, so the next decode runs from the root.
func (o *Observations) Reset() {
	for i := range o.spines {
		o.spines[i] = o.spines[i][:0]
	}
	o.count = 0
	o.gen++
	o.epoch++
	o.dirty = 0
}

// BitObservations is the binary-channel counterpart of Observations: it
// stores received coded bits (possibly flipped by a BSC) grouped by spine
// value, with the same dirty-level tracking for incremental decoding.
type BitObservations struct {
	spines   [][]bitObs
	count    int
	gen      uint64
	epoch    uint64
	dirty    int
	cleanGen uint64
}

type bitObs struct {
	pass int
	bit  byte
}

// NewBitObservations returns an empty container for nseg spine values.
func NewBitObservations(nseg int) (*BitObservations, error) {
	if nseg < 1 {
		return nil, fmt.Errorf("core: observations need at least one spine value, got %d", nseg)
	}
	return &BitObservations{spines: make([][]bitObs, nseg)}, nil
}

// Add records a received coded bit (0 or 1) for the position pos.
func (o *BitObservations) Add(pos SymbolPos, bit byte) error {
	if pos.Spine < 0 || pos.Spine >= len(o.spines) {
		return fmt.Errorf("core: spine index %d out of range [0,%d)", pos.Spine, len(o.spines))
	}
	if pos.Pass < 0 {
		return fmt.Errorf("core: negative pass %d", pos.Pass)
	}
	if bit != 0 && bit != 1 {
		return fmt.Errorf("core: coded bit must be 0 or 1, got %d", bit)
	}
	o.spines[pos.Spine] = append(o.spines[pos.Spine], bitObs{pass: pos.Pass, bit: bit})
	o.count++
	o.gen++
	if pos.Spine < o.dirty {
		o.dirty = pos.Spine
	}
	return nil
}

// AddBatch records one received coded bit per position, with the same
// all-or-nothing validation and single generation bump as
// Observations.AddBatch.
func (o *BitObservations) AddBatch(poss []SymbolPos, bits []byte) error {
	if len(poss) != len(bits) {
		return fmt.Errorf("core: AddBatch positions length %d != bits length %d", len(poss), len(bits))
	}
	if len(poss) == 0 {
		return nil
	}
	if err := validatePositions(poss, len(o.spines)); err != nil {
		return err
	}
	for _, bit := range bits {
		if bit != 0 && bit != 1 {
			return fmt.Errorf("core: coded bit must be 0 or 1, got %d", bit)
		}
	}
	for i, pos := range poss {
		o.spines[pos.Spine] = append(o.spines[pos.Spine], bitObs{pass: pos.Pass, bit: bits[i]})
		if pos.Spine < o.dirty {
			o.dirty = pos.Spine
		}
	}
	o.count += len(poss)
	o.gen++
	return nil
}

// Count returns the total number of received coded bits.
func (o *BitObservations) Count() int { return o.count }

// Generation returns a counter that increments on every mutation.
func (o *BitObservations) Generation() uint64 { return o.gen }

// Epoch returns a counter that increments only on Reset; see
// Observations.Epoch.
func (o *BitObservations) Epoch() uint64 { return o.epoch }

// DirtyLevel returns the lowest spine index mutated since the last MarkClean,
// or NumSegments() if nothing changed.
func (o *BitObservations) DirtyLevel() int { return o.dirty }

// MarkClean resets the dirty watermark.
func (o *BitObservations) MarkClean() {
	o.dirty = len(o.spines)
	o.cleanGen = o.gen
}

// NumSegments returns the number of spine values the container was sized for.
func (o *BitObservations) NumSegments() int { return len(o.spines) }

// PerSpine returns how many coded bits have been received for spine value t.
func (o *BitObservations) PerSpine(t int) int {
	if t < 0 || t >= len(o.spines) {
		return 0
	}
	return len(o.spines[t])
}

// Reset discards all recorded observations, retaining the allocation. The
// whole container becomes dirty, so the next decode runs from the root.
func (o *BitObservations) Reset() {
	for i := range o.spines {
		o.spines[i] = o.spines[i][:0]
	}
	o.count = 0
	o.gen++
	o.epoch++
	o.dirty = 0
}
