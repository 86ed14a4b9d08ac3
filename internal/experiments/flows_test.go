package experiments

import (
	"math"
	"testing"
)

func TestJainIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"one flow", []float64{3}, 1},
		{"equal", []float64{2.5, 2.5, 2.5, 2.5}, 1},
		{"one of two", []float64{0, 7}, 0.5},
		{"one of four", []float64{0, 0, 5, 0}, 0.25},
		{"one of ten", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1e-3}, 0.1},
	} {
		if got := jainIndex(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: jainIndex(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
	}
}
