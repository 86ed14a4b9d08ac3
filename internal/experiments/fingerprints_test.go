package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"spinal/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata records (fingerprints.txt, figure2.txt) from the current code")

const fingerprintsFile = "testdata/fingerprints.txt"

// TestScenarioFingerprints pins every deterministic scenario to a committed
// result: one sha256 of Result.Fingerprint() (every non-volatile cell) per
// scenario at smokeRequest(). A change that moves a decode, a rate or a work
// count moves a line of the file; rewrite it on purpose with
//
//	go test ./internal/experiments -run TestScenarioFingerprints -update
//
// so the diff shows which scenarios moved. The hashes are pinned on amd64
// at the baseline GOAMD64 only (see unfusedFloat).
func TestScenarioFingerprints(t *testing.T) {
	if why, ok := unfusedFloat(); !ok {
		t.Skip("fingerprints are pinned on amd64 at GOAMD64 v1/v2; " + why)
	}
	var got strings.Builder
	for _, name := range registryNames {
		sc, ok := sim.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		res, err := sc.Run(smokeRequest())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", name, sha256.Sum256([]byte(res.Fingerprint())))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintsFile)
	if err != nil {
		t.Fatalf("%v (rewrite it with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d scenarios, the registry runs %d (rewrite it with -update)", fingerprintsFile, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("fingerprint moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// unfusedFloat reports whether the build rounds floating point like the
// committed records. The Go spec lets a compiler fuse x*y+z into one FMA
// instruction, which gc does on arm64 (and on amd64 from GOAMD64=v3), and a
// fused multiply-add rounds differently; when it may, the reason is
// returned.
func unfusedFloat() (string, bool) {
	if runtime.GOARCH != "amd64" {
		return fmt.Sprintf("GOARCH=%s may fuse multiply-adds", runtime.GOARCH), false
	}
	if v := os.Getenv("GOAMD64"); v != "" && v != "v1" && v != "v2" {
		return fmt.Sprintf("GOAMD64=%s may fuse multiply-adds", v), false
	}
	return "", true
}
