package main

import (
	"math"
	"testing"
)

func TestResolveFlow(t *testing.T) {
	for _, tc := range []struct {
		flow uint64
		pid  int
		want uint32
	}{
		{flow: 0, pid: 4242, want: 4242},
		{flow: 1, pid: 4242, want: 1},
		{flow: math.MaxUint32, pid: 4242, want: math.MaxUint32},
	} {
		got, err := resolveFlow(tc.flow, tc.pid)
		if err != nil || got != tc.want {
			t.Errorf("resolveFlow(%d, %d) = %d, %v; want %d", tc.flow, tc.pid, got, err, tc.want)
		}
	}
	// Values past the 32-bit wire field must not wrap onto another flow
	// (1<<32+1 would become flow 1) or onto 0 and the pid fallback.
	for _, flow := range []uint64{1 << 32, 1<<32 + 1, math.MaxUint64} {
		if got, err := resolveFlow(flow, 4242); err == nil {
			t.Errorf("resolveFlow(%d) = %d, want an error", flow, got)
		}
	}
}
