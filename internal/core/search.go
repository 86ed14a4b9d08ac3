package core

import "fmt"

// This file is the knob surface of the approximate search (engine.go holds
// the mechanics). There is one approximation, the bubble cap: a level with
// no observations yet keeps only the children of the W cheapest parents
// instead of every candidate up to the B·2^k cap. Because the code is
// rateless the receiver decodes many times before every spine value has a
// symbol, and at those attempts the unobserved levels' full breadth — times
// 2^k children each — dominates the expansion count.
//
// The cap cannot cost a decode that could succeed. Every attempt searches
// from the root and applies the cap only to levels that have no observation
// yet: once every level has at least one observation an approximate decode
// returns exactly what the exact search returns. Before that, some segment of the decoded message
// is a blind guess, which the CRC rejects except by chance.

// SearchMode selects the decoder's tree-search strategy.
type SearchMode uint8

const (
	// SearchExact is the full beam search of the HotNets'11 paper —
	// bit-identical to the decoder as it existed before approximate modes.
	SearchExact SearchMode = iota
	// SearchApprox is the exact search plus the bubble cap: an unobserved
	// level keeps only the children of its W = max(2, B/8) cheapest parents.
	SearchApprox
)

// String renders the mode the way the -search CLI flags spell it.
func (m SearchMode) String() string {
	switch m {
	case SearchExact:
		return "exact"
	case SearchApprox:
		return "approx"
	default:
		return fmt.Sprintf("SearchMode(%d)", uint8(m))
	}
}

// ParseSearchMode resolves a CLI spelling of a search mode: "exact" or
// "approx". The empty string is the exact default.
func ParseSearchMode(s string) (SearchMode, error) {
	switch s {
	case "", "exact":
		return SearchExact, nil
	case "approx":
		return SearchApprox, nil
	default:
		return SearchExact, fmt.Errorf("core: unknown search mode %q (want exact or approx)", s)
	}
}

// bubbleParents is W, the number of cheapest parents whose children an
// unobserved level retains under SearchApprox, for a beam width b: an eighth
// of the beam, floored at 2 so at least two competing prefixes always
// survive a punctured stretch.
func bubbleParents(b int) int {
	return max(2, b/8)
}

// SetSearchMode installs a search strategy for the decoder's next Decode.
// SearchExact restores the exact search, which is bit-identical to a decoder
// that never had the approximate mode installed.
func (d *BeamDecoder) SetSearchMode(m SearchMode) error {
	switch m {
	case SearchExact, SearchApprox:
	default:
		return fmt.Errorf("core: unknown search mode %d", uint8(m))
	}
	d.search = m
	return nil
}

// SearchMode reports the installed search strategy.
func (d *BeamDecoder) SearchMode() SearchMode { return d.search }
