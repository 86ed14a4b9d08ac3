package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"spinal/internal/sim"
)

const figure2File = "testdata/figure2.txt"

// TestFigure2Record pins the figure2 scenario at the scale spinalsim draws
// it (sim.DefaultRequest(): 11 SNRs from -10 to 40 dB, 100 spinal trials
// and 60 LDPC frames per point) to a committed, readable record with one
// row per (curve, SNR), and gates the figure's claims on the same rows. A
// change that moves a point on purpose rewrites the record with
//
//	go test ./internal/experiments -run TestFigure2Record -update
//
// so the diff shows which points moved. The claims are checked on every
// platform; the record itself is compared on amd64 at GOAMD64 v1/v2 only
// (see unfusedFloat).
func TestFigure2Record(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper-scale figure2 run takes several seconds")
	}
	sc, ok := sim.Lookup("figure2")
	if !ok {
		t.Fatal("scenario figure2 not registered")
	}
	res, err := sc.Run(sim.DefaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure2Claims(t, res)

	got := figure2Rows(res)
	if *update {
		if err := os.WriteFile(figure2File, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if why, ok := unfusedFloat(); !ok {
		t.Skip("the figure2 record is pinned on amd64 at GOAMD64 v1/v2; " + why)
	}
	want, err := os.ReadFile(figure2File)
	if err != nil {
		t.Fatalf("%v (rewrite it with -update)", err)
	}
	wantRows := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantRows) != len(got) {
		t.Fatalf("%s has %d rows, the run produced %d (rewrite it with -update)", figure2File, len(wantRows), len(got))
	}
	for i := range got {
		if got[i] != wantRows[i] {
			t.Errorf("figure2 point moved:\n got  %s\n want %s", got[i], wantRows[i])
		}
	}
}

// figure2Rows renders a figure2 result as the record's rows, one per
// (curve, SNR): the curve's name, then every cell as column=value.
func figure2Rows(res *sim.Result) []string {
	var rows []string
	for _, tb := range res.Tables {
		curve := figure2Curve(tb)
		for r := range tb.Rows {
			row := curve
			for c, col := range tb.Columns {
				row += " " + col.Name + "=" + tb.Cell(r, c)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// figure2Curve names a figure2 table after its value column: "spinal" for
// spinal_rate_bits_per_sym, the LDPC label for <label>_throughput, and
// "bounds" for the reference bounds.
func figure2Curve(tb *sim.Table) string {
	name := tb.Columns[1].Name
	for _, suffix := range []string{"_rate_bits_per_sym", "_throughput"} {
		if curve, ok := strings.CutSuffix(name, suffix); ok {
			return curve
		}
	}
	return "bounds"
}

// checkFigure2Claims gates Figure 2's claims on the rendered rows: at every
// SNR the spinal rate is at least the best LDPC baseline, rises strictly
// with SNR and stays within 0.15 bits/symbol of Shannon (the genie's
// optimism on 24-bit messages, as in TestSpinalRateCurveIncreasesWithSNR),
// and neither the finite-blocklength nor the Theorem 1 bound exceeds
// Shannon.
func checkFigure2Claims(t *testing.T, res *sim.Result) {
	t.Helper()
	if len(res.Tables) != 2+len(Figure2LDPCConfigs()) {
		t.Fatalf("figure2 has %d tables, want bounds, spinal and %d LDPC curves", len(res.Tables), len(Figure2LDPCConfigs()))
	}
	bounds, spinal, ldpc := res.Tables[0], res.Tables[1], res.Tables[2:]
	cell := func(tb *sim.Table, r, c int) float64 {
		t.Helper()
		if tb.Cell(r, 0) != spinal.Cell(r, 0) {
			t.Fatalf("%s row %d is at %s dB, spinal at %s dB", figure2Curve(tb), r, tb.Cell(r, 0), spinal.Cell(r, 0))
		}
		v, err := strconv.ParseFloat(tb.Cell(r, c), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for r := range spinal.Rows {
		snr := spinal.Cell(r, 0)
		rate, shannon := cell(spinal, r, 1), cell(bounds, r, 1)
		for _, tb := range ldpc {
			if ldpcRate := cell(tb, r, 1); rate < ldpcRate {
				t.Errorf("%s dB: spinal rate %.3f below %s's %.3f", snr, rate, figure2Curve(tb), ldpcRate)
			}
		}
		if r > 0 && rate <= cell(spinal, r-1, 1) {
			t.Errorf("%s dB: spinal rate %.3f does not rise above %.3f at %s dB", snr, rate, cell(spinal, r-1, 1), spinal.Cell(r-1, 0))
		}
		if rate > shannon+0.15 {
			t.Errorf("%s dB: spinal rate %.3f exceeds Shannon %.3f by more than 0.15", snr, rate, shannon)
		}
		if fbl, thm1 := cell(bounds, r, 2), cell(bounds, r, 3); fbl > shannon || thm1 > shannon {
			t.Errorf("%s dB: finite-block %.3f or Theorem 1 %.3f above Shannon %.3f", snr, fbl, thm1, shannon)
		}
	}
}
