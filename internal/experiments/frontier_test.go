package experiments

import "testing"

// TestFrontierGate checks the headline claim of the approximate search end
// to end, at the frontier scenario's default operating point (B=32, m=96,
// striped schedule, 10 dB): approx must deliver exactly the messages the
// exact search delivers — after the same number of symbols, so
// rate_vs_exact is 1.000 — while expanding <=40% of the exact search's tree
// nodes, on byte-identical per-trial symbol streams. The comparison itself
// is deterministic — seeds derive from the trial index — so this is a fixed
// property of the decoder, not a statistical bound.
func TestFrontierGate(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier gate needs enough trials for a stable rate ratio")
	}
	cfg := Figure2Config()
	cfg.BeamWidth = 32
	cfg.MessageBits = 96
	cfg.MaxPasses = 150
	cfg.Trials = 10
	pts, err := FrontierComparison(cfg, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Mode != "exact" || pts[1].Mode != "approx" {
		t.Fatalf("unexpected point layout: %+v", pts)
	}
	exact, approx := pts[0], pts[1]
	if exact.Delivered == 0 {
		t.Fatal("exact mode delivered nothing at 10 dB within the pass budget")
	}
	t.Logf("approx rate=%.3f (%.3fx exact) nodes=%d (%.3fx exact) saved=%d delivered=%d/%d",
		approx.Rate, approx.RateVsExact, approx.Nodes, approx.NodesVsExact, approx.NodesSaved, approx.Delivered, approx.Trials)
	if approx.Delivered != exact.Delivered || approx.Rate != exact.Rate {
		t.Errorf("approx delivered %d at rate %v, exact %d at rate %v: the cap cost delivered rate",
			approx.Delivered, approx.Rate, exact.Delivered, exact.Rate)
	}
	if approx.NodesVsExact > 0.40 {
		t.Errorf("approx expanded %.3fx the exact nodes, want <= 0.40", approx.NodesVsExact)
	}
	if approx.NodesSaved <= 0 {
		t.Error("approx reported no nodes saved")
	}
}
