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
// breaks the strict (cost, parent, seg) order the beam search selects by.
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
// A decode only reads it.
type Observations struct {
	spines [][]symbolObs
	count  int
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
// and appends happen in slice order, so a batch add is indistinguishable,
// observation for observation, from the equivalent sequence of Adds.
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
	}
	o.count += len(poss)
	return nil
}

// Count returns the total number of received symbols.
func (o *Observations) Count() int { return o.count }

// NumSegments returns the number of spine values the container was sized for.
func (o *Observations) NumSegments() int { return len(o.spines) }

// PerSpine returns how many symbols have been received for spine value t.
func (o *Observations) PerSpine(t int) int {
	if t < 0 || t >= len(o.spines) {
		return 0
	}
	return len(o.spines[t])
}

// Reset discards all recorded observations, retaining the allocation.
func (o *Observations) Reset() {
	for i := range o.spines {
		o.spines[i] = o.spines[i][:0]
	}
	o.count = 0
}

// BitObservations is the binary-channel counterpart of Observations: it
// stores received coded bits (possibly flipped by a BSC) grouped by spine
// value.
type BitObservations struct {
	spines [][]bitObs
	count  int
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

// Add records a received coded bit (0 or 1) for the position pos: AddBatch
// of one bit, so it is validated the same way.
func (o *BitObservations) Add(pos SymbolPos, bit byte) error {
	return o.AddBatch([]SymbolPos{pos}, []byte{bit})
}

// AddBatch records one received coded bit per position, with the same
// all-or-nothing validation as Observations.AddBatch.
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
	}
	o.count += len(poss)
	return nil
}

// Count returns the total number of received coded bits.
func (o *BitObservations) Count() int { return o.count }

// NumSegments returns the number of spine values the container was sized for.
func (o *BitObservations) NumSegments() int { return len(o.spines) }

// PerSpine returns how many coded bits have been received for spine value t.
func (o *BitObservations) PerSpine(t int) int {
	if t < 0 || t >= len(o.spines) {
		return 0
	}
	return len(o.spines[t])
}

// Reset discards all recorded observations, retaining the allocation.
func (o *BitObservations) Reset() {
	for i := range o.spines {
		o.spines[i] = o.spines[i][:0]
	}
	o.count = 0
}
