package main

import (
	"strings"
	"testing"
)

// TestServeRejectsBadSpecs checks that serve returns an error, rather than
// serving, when a search mode, impairment spec or fault profile is malformed.
func TestServeRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name, search, impair, fault, want string
	}{
		{name: "unknown search", search: "gap", want: "gap"},
		{name: "malformed impair", impair: "awgn(snr=nan)", want: "snr"},
		{name: "unknown impair stage", impair: "bogus(x=1)", want: "bogus"},
		{name: "malformed fault", fault: "drop=nan", want: "drop"},
		{name: "unknown fault key", fault: "shuffle=0.1", want: "shuffle"},
	} {
		err := serve("127.0.0.1:0", 15, 14, 16, 1, 1, 1, 0, 0, 0, 0, 0,
			tc.search, false, tc.impair, tc.fault)
		if err == nil {
			t.Errorf("%s: serve returned nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
