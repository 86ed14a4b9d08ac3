package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunBounds(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "bounds", "-snr-min", "0", "-snr-max", "20", "-snr-step", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"shannon", "finite_block", "theorem1", "completed bounds"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSpinalCSV(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "spinal", "-snr-min", "10", "-snr-max", "10", "-snr-step", "5",
		"-trials", "5", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snr_db,spinal_rate_bits_per_sym") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestRunBeamSweep(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "beam", "-snr", "10", "-trials", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "beam_width") {
		t.Fatalf("beam table missing:\n%s", out.String())
	}
}

func TestRunFountain(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fountain"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "received_overhead") {
		t.Fatalf("fountain table missing:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsRetiredFlags checks that flags whose knobs were deleted are
// unknown, not silently ignored: -workers set the decoder's per-level
// worker goroutines, -metric its path-cost arithmetic, -impair the channel
// stack of the impairment scenarios.
func TestRunRejectsRetiredFlags(t *testing.T) {
	for _, args := range [][]string{{"-workers", "2"}, {"-metric", "int32"}, {"-impair", "awgn(snr=10)"}} {
		var out strings.Builder
		err := run(append([]string{"-exp", "bounds"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: got error %v, want an unknown-flag error", args, err)
		}
	}
}

// TestRunUnknownExperimentSuggests checks the near-match hint: a typo of a
// registered name must surface the intended scenario.
func TestRunUnknownExperimentSuggests(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "chaossok"}, &out)
	if err == nil {
		t.Fatal("typoed experiment accepted")
	}
	if !strings.Contains(err.Error(), `"chaossoak"`) {
		t.Fatalf("error %q does not suggest chaossoak", err.Error())
	}
}

// TestRunList checks the registry enumeration, text and JSON forms.
func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figure2", "spinal", "bsc", "saturate", "chaossoak", "description"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}

	var jsonOut strings.Builder
	if err := run([]string{"-exp", "list", "-json"}, &jsonOut); err != nil {
		t.Fatal(err)
	}
	var list struct {
		Scenarios []struct {
			Name        string   `json:"name"`
			Description string   `json:"description"`
			Flags       []string `json:"flags"`
			Columns     []string `json:"columns"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(jsonOut.String()), &list); err != nil {
		t.Fatalf("list -json is not valid JSON: %v\n%s", err, jsonOut.String())
	}
	if len(list.Scenarios) < 15 {
		t.Fatalf("registry lists only %d scenarios", len(list.Scenarios))
	}
	for _, sc := range list.Scenarios {
		if sc.Name == "" || sc.Description == "" || len(sc.Flags) == 0 {
			t.Fatalf("scenario entry incomplete: %+v", sc)
		}
	}
}

// TestRunJSONResult checks the -json result shape on a fast scenario: valid
// JSON, the scenario name, a non-empty table with matching column count.
func TestRunJSONResult(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "bounds", "-snr-min", "0", "-snr-max", "10", "-snr-step", "5", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Scenario string `json:"scenario"`
		Tables   []struct {
			Columns []struct {
				Name string `json:"name"`
			} `json:"columns"`
			Rows [][]any `json:"rows"`
		} `json:"tables"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, out.String())
	}
	if res.Scenario != "bounds" || len(res.Tables) != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("bounds at 3 SNRs produced %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row width %d != %d columns", len(row), len(tab.Columns))
		}
	}
	if res.ElapsedMS <= 0 {
		t.Fatal("elapsed_ms not recorded")
	}
	// JSON mode must emit nothing but the JSON document.
	if strings.Contains(out.String(), "# completed") {
		t.Fatal("JSON output polluted by the completion comment")
	}
}

// TestRunHonorsZeroSNR pins a regression: -snr 0 selects the 0 dB operating
// point (the canonical low-SNR setting), not a silent fallback to 10 dB.
func TestRunHonorsZeroSNR(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "beam", "-snr", "0", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "at 0.0 dB") {
		t.Fatalf("-snr 0 not honored:\n%s", out.String())
	}
}

// TestRunIgnoresUnconsumedBadSweep pins the Scenario.Flags contract: a
// scenario that does not declare the sweep flags must not fail on a
// malformed sweep (scripts pass one shared flag set to many experiments).
func TestRunIgnoresUnconsumedBadSweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fountain", "-trials", "2", "-snr-min", "10", "-snr-max", "0"}, &out); err != nil {
		t.Fatalf("fountain rejected a sweep it does not consume: %v", err)
	}
	if !strings.Contains(out.String(), "received_overhead") {
		t.Fatalf("fountain output missing:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-snr-step", "abc"}, &out); err == nil {
		t.Fatal("bad flag value accepted")
	}
	if err := run([]string{"-exp", "spinal", "-snr-min", "10", "-snr-max", "0"}, &out); err == nil {
		t.Fatal("inverted sweep accepted")
	}
	if err := run([]string{"-exp", "bounds", "-csv", "-json"}, &out); err == nil {
		t.Fatal("-csv with -json accepted")
	}
}
