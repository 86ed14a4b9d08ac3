package core

// spineIndex maps parent spine values to frontier indices on the rebuild
// path. It replaces the previous map[uint64]int32: spine values are already
// avalanche-mixed hash outputs, so their low bits index an open-addressed
// table directly — no re-hashing, no bucket chasing, and reset is O(1) via
// generation stamps instead of clearing (or reallocating) the table. The
// table is sized to stay at most half full, so linear probes terminate
// quickly. It is written before a level expansion and read during it.
type spineIndex struct {
	spines []uint64
	idxs   []int32
	stamps []uint32
	gen    uint32
	mask   uint32
}

// reset prepares the index for up to n entries, invalidating any previous
// contents in O(1).
func (x *spineIndex) reset(n int) {
	need := 4
	for need < 2*n {
		need <<= 1
	}
	if len(x.spines) < need {
		x.spines = make([]uint64, need)
		x.idxs = make([]int32, need)
		x.stamps = make([]uint32, need)
		x.gen = 0
	}
	x.mask = uint32(len(x.spines) - 1)
	x.gen++
	if x.gen == 0 {
		// Stamp wraparound: old stamps could alias the new generation, so
		// clear once and restart. Happens every 2^32 resets.
		clear(x.stamps)
		x.gen = 1
	}
}

// put records spine→idx. On duplicate spine values the first entry wins,
// matching the map-based predecessor's insert-if-absent behavior.
func (x *spineIndex) put(spine uint64, idx int32) {
	i := uint32(spine) & x.mask
	for {
		if x.stamps[i] != x.gen {
			x.stamps[i] = x.gen
			x.spines[i] = spine
			x.idxs[i] = idx
			return
		}
		if x.spines[i] == spine {
			return
		}
		i = (i + 1) & x.mask
	}
}

// get looks up the index recorded for a spine value.
func (x *spineIndex) get(spine uint64) (int32, bool) {
	i := uint32(spine) & x.mask
	for {
		if x.stamps[i] != x.gen {
			return 0, false
		}
		if x.spines[i] == spine {
			return x.idxs[i], true
		}
		i = (i + 1) & x.mask
	}
}
