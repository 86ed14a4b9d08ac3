package experiments

import (
	"strconv"
	"testing"

	"spinal/internal/capacity"
	"spinal/internal/sim"
)

const bscFile = "testdata/bsc.txt"

// TestBSCRecord pins the bsc scenario at the scale spinalsim runs it
// (sim.DefaultRequest(): 8 crossover probabilities, 100 trials each, k=4) to
// a committed record with one row per crossover probability, and gates
// Theorem 2 on the same rows: every achieved rate lies below the BSC
// capacity 1 − H(p). A change that moves a point on purpose rewrites the
// record with
//
//	go test ./internal/experiments -run TestBSCRecord -update
//
// The gate is checked on every platform; the record is compared on amd64
// at GOAMD64 v1/v2 only (see unfusedFloat).
func TestBSCRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("the default-scale bsc run takes a few seconds")
	}
	sc, ok := sim.Lookup("bsc")
	if !ok {
		t.Fatal("scenario bsc not registered")
	}
	res, err := sc.Run(sim.DefaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("bsc has %d tables, want 1", len(res.Tables))
	}
	tb := res.Tables[0]
	cell := func(r, c int) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(tb.Cell(r, c), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for r := range tb.Rows {
		p, rate := cell(r, 0), cell(r, 1)
		if c := capacity.BSC(p); rate >= c {
			t.Errorf("p=%s: rate %.3f is not below the capacity 1 - H(p) = %.3f", tb.Cell(r, 0), rate, c)
		}
	}
	matchRecord(t, bscFile, recordRows(res, func(*sim.Table) string { return "bsc" }))
}
