// Package constellation implements the dense constellation mappings used by
// spinal codes to turn hash-derived coded bits into I-Q symbols.
//
// The paper's encoder takes 2c bits from each spine value per pass and maps
// the first c bits to the I coordinate and the last c bits to the Q
// coordinate (§3.1). This package provides the linear sign/magnitude mapping
// of Eq. 3, a uniform (natural binary) grid mapping, and the truncated
// Gaussian mapping the paper proposes as future work. All mappers are
// normalized to unit average symbol energy assuming uniformly distributed
// input bits, so that SNR = 1/sigma^2 throughout the repository.
//
// Mappers are immutable. NewLinear and NewUniform return one shared mapper
// per c, built on first use, so every encoder and decoder of a code shares
// its table; the slice a TableMapper's DimTable returns is that shared table
// and must never be written.
package constellation

import (
	"fmt"
	"math"
	"sync"

	"spinal/internal/mathx"
)

// Mapper converts a 2c-bit word of coded bits into a constellation point on
// the I-Q plane. The I bits occupy the high c bits of the word and the Q bits
// the low c bits, matching the bit order produced by the spinal encoder.
type Mapper interface {
	// Map returns the constellation point for the given 2c-bit word.
	Map(word uint32) complex128
	// C returns the number of coded bits per dimension (the paper's c).
	C() int
	// Name identifies the mapping for experiment output.
	Name() string
}

// TableMapper is implemented by mappers whose two dimensions are mapped
// independently through a shared per-dimension coordinate table, i.e.
// Map(word) == complex(tab[word>>c&mask], tab[word&mask]) with a table of
// 2^c entries. Every mapper in this package qualifies; the beam decoder uses
// the table to replace the per-symbol interface call in its cost fold with
// two array loads.
type TableMapper interface {
	Mapper
	// DimTable returns the per-dimension coordinate table, indexed by the
	// c-bit value of one dimension. Callers must treat it as read-only.
	DimTable() []float64
}

// dimMapper implements Mapper from a per-dimension raw mapping function.
// The raw mapping is normalized at construction time so that the average
// symbol energy over uniformly random bits is exactly 1.
type dimMapper struct {
	c     int
	name  string
	table []float64 // normalized coordinate per c-bit value
}

func (m *dimMapper) C() int       { return m.c }
func (m *dimMapper) Name() string { return m.name }

// DimTable exposes the normalized per-dimension coordinate table. The slice
// is owned by the mapper, possibly shared by every user of it, and must not
// be modified.
func (m *dimMapper) DimTable() []float64 { return m.table }

func (m *dimMapper) Map(word uint32) complex128 {
	mask := uint32(1)<<uint(m.c) - 1
	i := m.table[word>>uint(m.c)&mask]
	q := m.table[word&mask]
	return complex(i, q)
}

// newDimMapper tabulates and normalizes a per-dimension mapping.
func newDimMapper(c int, name string, raw func(v uint32) float64) (*dimMapper, error) {
	if c < 1 || c > 16 {
		return nil, fmt.Errorf("constellation: c must be in [1,16], got %d", c)
	}
	n := 1 << uint(c)
	table := make([]float64, n)
	var energy float64
	for v := 0; v < n; v++ {
		table[v] = raw(uint32(v))
		energy += table[v] * table[v]
	}
	energy /= float64(n) // per-dimension average energy, unnormalized
	if energy == 0 {
		return nil, fmt.Errorf("constellation: %s mapping with c=%d has zero energy", name, c)
	}
	// Scale so that the per-dimension energy is 1/2, i.e. total symbol energy 1.
	scale := math.Sqrt(0.5 / energy)
	for v := range table {
		table[v] *= scale
	}
	return &dimMapper{c: c, name: name, table: table}, nil
}

// sharedMapper is one lazily built entry of a per-c mapper cache.
type sharedMapper struct {
	once sync.Once
	m    *dimMapper
	err  error
}

// get returns the entry's mapper, building it on the first call.
func (e *sharedMapper) get(build func() (*dimMapper, error)) (Mapper, error) {
	e.once.Do(func() { e.m, e.err = build() })
	if e.err != nil {
		return nil, e.err
	}
	return e.m, nil
}

// linearMappers and uniformMappers hold the shared mappers of NewLinear and
// NewUniform, indexed by c.
var linearMappers, uniformMappers [17]sharedMapper

// NewLinear returns the linear sign/magnitude mapper of Eq. 3 in the paper:
// the first of the c bits selects the sign and the remaining c-1 bits select
// the magnitude on a uniform grid. Requires c >= 2 (with c = 1 the magnitude
// is always zero). Every call with the same c returns the same shared mapper.
func NewLinear(c int) (Mapper, error) {
	if c < 2 || c > 16 {
		return nil, fmt.Errorf("constellation: linear mapping requires c in [2,16], got %d", c)
	}
	return linearMappers[c].get(func() (*dimMapper, error) {
		den := float64(int(1)<<uint(c-1) - 1)
		return newDimMapper(c, fmt.Sprintf("linear(c=%d)", c), func(v uint32) float64 {
			sign := 1.0
			if v>>uint(c-1)&1 == 1 {
				sign = -1
			}
			mag := float64(v & (1<<uint(c-1) - 1))
			return sign * mag / den
		})
	})
}

// NewUniform returns a natural-binary uniform grid mapping: the c bits are
// interpreted as an unsigned integer and mapped to 2^c equally spaced levels
// centered at zero. This is the mapping used by later spinal-code work and is
// included for comparison experiments. Every call with the same c returns the
// same shared mapper.
func NewUniform(c int) (Mapper, error) {
	if c < 1 || c > 16 {
		return nil, fmt.Errorf("constellation: c must be in [1,16], got %d", c)
	}
	return uniformMappers[c].get(func() (*dimMapper, error) {
		offset := float64(int64(1)<<uint(c)-1) / 2
		return newDimMapper(c, fmt.Sprintf("uniform(c=%d)", c), func(v uint32) float64 {
			return float64(v) - offset
		})
	})
}

// NewTruncatedGaussian returns the truncated Gaussian mapping suggested as
// future work in §6 of the paper: the c bits index quantiles of a standard
// normal distribution clipped to [-beta, beta]. A Gaussian-shaped input
// distribution is closer to the capacity-achieving input for the AWGN channel
// than a uniform grid.
func NewTruncatedGaussian(c int, beta float64) (Mapper, error) {
	if beta <= 0 {
		return nil, fmt.Errorf("constellation: truncation point must be positive, got %v", beta)
	}
	n := float64(int64(1) << uint(c))
	return newDimMapper(c, fmt.Sprintf("truncgauss(c=%d,beta=%.1f)", c, beta), func(v uint32) float64 {
		q := mathx.NormalQuantile((float64(v) + 0.5) / n)
		return mathx.Clamp(q, -beta, beta)
	})
}

// ByName constructs one of the spinal mappers from a short name, as used by
// the experiment command line: "linear", "uniform" or "gaussian".
func ByName(name string, c int) (Mapper, error) {
	switch name {
	case "linear":
		return NewLinear(c)
	case "uniform":
		return NewUniform(c)
	case "gaussian", "truncgauss":
		return NewTruncatedGaussian(c, 3.0)
	default:
		return nil, fmt.Errorf("constellation: unknown mapper %q", name)
	}
}

// AverageEnergy returns the average symbol energy of the mapper under
// uniformly distributed input bits. It is exported for tests and for sanity
// checks in experiment setup; correctly constructed mappers return 1.
func AverageEnergy(m Mapper) float64 {
	c := m.C()
	n := 1 << uint(2*c)
	// For large c, enumerate only a deterministic stratified subset per
	// dimension; energy separates across I and Q, so enumerating one
	// dimension is exact.
	dim := 1 << uint(c)
	var e float64
	for v := 0; v < dim; v++ {
		p := m.Map(uint32(v) << uint(c)) // Q bits zero
		e += real(p) * real(p)
	}
	e /= float64(dim)
	_ = n
	return 2 * e // both dimensions have identical statistics
}
