package constellation

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestLinearUnitEnergy(t *testing.T) {
	for _, c := range []int{2, 4, 6, 8, 10, 12} {
		m, err := NewLinear(c)
		if err != nil {
			t.Fatalf("NewLinear(%d): %v", c, err)
		}
		if e := AverageEnergy(m); math.Abs(e-1) > 1e-9 {
			t.Errorf("linear c=%d average energy = %v, want 1", c, e)
		}
	}
}

func TestUniformUnitEnergy(t *testing.T) {
	for _, c := range []int{1, 2, 3, 6, 10} {
		m, err := NewUniform(c)
		if err != nil {
			t.Fatalf("NewUniform(%d): %v", c, err)
		}
		if e := AverageEnergy(m); math.Abs(e-1) > 1e-9 {
			t.Errorf("uniform c=%d average energy = %v, want 1", c, e)
		}
	}
}

func TestTruncatedGaussianUnitEnergy(t *testing.T) {
	for _, c := range []int{2, 6, 10} {
		m, err := NewTruncatedGaussian(c, 3)
		if err != nil {
			t.Fatalf("NewTruncatedGaussian(%d): %v", c, err)
		}
		if e := AverageEnergy(m); math.Abs(e-1) > 1e-9 {
			t.Errorf("truncgauss c=%d average energy = %v, want 1", c, e)
		}
	}
}

func TestLinearSignBit(t *testing.T) {
	c := 6
	m, err := NewLinear(c)
	if err != nil {
		t.Fatal(err)
	}
	// Per Eq. 3 the first (most significant) of the c bits is a sign bit:
	// flipping it negates the coordinate.
	for v := uint32(1); v < 1<<uint(c-1); v++ {
		plus := m.Map(v << uint(c))
		minus := m.Map((v | 1<<uint(c-1)) << uint(c))
		if math.Abs(real(plus)+real(minus)) > 1e-12 {
			t.Fatalf("sign bit does not negate: v=%d %v vs %v", v, plus, minus)
		}
	}
}

func TestLinearMagnitudeMonotone(t *testing.T) {
	c := 8
	m, _ := NewLinear(c)
	prev := -1.0
	for v := uint32(0); v < 1<<uint(c-1); v++ {
		x := real(m.Map(v << uint(c)))
		if x < prev {
			t.Fatalf("linear magnitude not monotone at %d", v)
		}
		prev = x
	}
}

func TestUniformMonotoneAndSymmetric(t *testing.T) {
	c := 5
	m, _ := NewUniform(c)
	n := 1 << uint(c)
	prev := math.Inf(-1)
	for v := 0; v < n; v++ {
		x := real(m.Map(uint32(v) << uint(c)))
		if x <= prev {
			t.Fatalf("uniform mapping not strictly increasing at %d", v)
		}
		prev = x
		// Symmetry: value v and value n-1-v should be negatives.
		y := real(m.Map(uint32(n-1-v) << uint(c)))
		if math.Abs(x+y) > 1e-12 {
			t.Fatalf("uniform mapping not symmetric at %d: %v vs %v", v, x, y)
		}
	}
}

func TestTruncatedGaussianShape(t *testing.T) {
	c := 8
	m, _ := NewTruncatedGaussian(c, 2.0)
	n := 1 << uint(c)
	// Extremes must be clipped to +-beta (scaled); monotone overall.
	lo := real(m.Map(0))
	hi := real(m.Map(uint32(n-1) << uint(c)))
	if lo >= 0 || hi <= 0 {
		t.Fatalf("gaussian extremes have wrong signs: %v %v", lo, hi)
	}
	if math.Abs(lo+hi) > 1e-9 {
		t.Fatalf("gaussian mapping not symmetric: %v vs %v", lo, hi)
	}
	prev := math.Inf(-1)
	for v := 0; v < n; v++ {
		x := real(m.Map(uint32(v) << uint(c)))
		if x < prev {
			t.Fatalf("gaussian mapping not monotone at %d", v)
		}
		prev = x
	}
}

func TestMapSeparatesIQ(t *testing.T) {
	m, _ := NewLinear(10)
	c := uint(10)
	prop := func(i, q uint16) bool {
		iBits := uint32(i) & (1<<c - 1)
		qBits := uint32(q) & (1<<c - 1)
		p := m.Map(iBits<<c | qBits)
		pi := m.Map(iBits << c)
		pq := m.Map(qBits)
		return real(p) == real(pi) && imag(p) == imag(pq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidParameters(t *testing.T) {
	if _, err := NewLinear(1); err == nil {
		t.Error("NewLinear(1) should fail")
	}
	if _, err := NewLinear(0); err == nil {
		t.Error("NewLinear(0) should fail")
	}
	if _, err := NewUniform(17); err == nil {
		t.Error("NewUniform(17) should fail")
	}
	if _, err := NewTruncatedGaussian(8, -1); err == nil {
		t.Error("NewTruncatedGaussian with negative beta should fail")
	}
}

// TestSharedMappers pins that NewLinear and NewUniform hand out one mapper
// per c: repeated calls, and calls racing from many goroutines (run under
// -race), all return the same instance.
func TestSharedMappers(t *testing.T) {
	for _, ctor := range []struct {
		name string
		fn   func(int) (Mapper, error)
	}{{"linear", NewLinear}, {"uniform", NewUniform}} {
		for _, c := range []int{2, 4, 10, 16} {
			const goroutines = 8
			got := make([]Mapper, goroutines)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m, err := ctor.fn(c)
					if err != nil {
						t.Errorf("%s(%d): %v", ctor.name, c, err)
					}
					got[g] = m
				}()
			}
			wg.Wait()
			again, _ := ctor.fn(c)
			for g, m := range got {
				if m != again {
					t.Fatalf("%s(%d): goroutine %d got a different mapper than a later call", ctor.name, c, g)
				}
			}
		}
	}
	lin, _ := NewLinear(8)
	uni, _ := NewUniform(8)
	if lin == uni {
		t.Fatal("linear and uniform mappers share an instance")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"linear", "uniform", "gaussian"} {
		m, err := ByName(name, 10)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.C() != 10 {
			t.Fatalf("ByName(%q).C() = %d", name, m.C())
		}
	}
	if _, err := ByName("qam", 10); err == nil {
		t.Error("ByName with unknown name should fail")
	}
}

func TestNames(t *testing.T) {
	m, _ := NewLinear(10)
	if m.Name() == "" {
		t.Error("empty mapper name")
	}
	g, _ := NewTruncatedGaussian(6, 2.5)
	if g.Name() == m.Name() {
		t.Error("mapper names should differ")
	}
}

func BenchmarkLinearMap(b *testing.B) {
	m, _ := NewLinear(10)
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += m.Map(uint32(i) & 0xfffff)
	}
	_ = acc
}
