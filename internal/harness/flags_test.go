package harness

import (
	"flag"
	"strings"
	"testing"
)

// TestSWCCheckLimitRange: -swc-check-limit values that fit the 32-bit
// SWC check interval become an option; larger ones are rejected instead
// of wrapping to 0, which would mean unclamped.
func TestSWCCheckLimitRange(t *testing.T) {
	for _, c := range []struct {
		arg     string
		wantErr bool
	}{
		{"0", false},
		{"64", false},
		{"4294967295", false},
		{"4294967296", true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := RegisterCommonFlags(fs)
		if err := fs.Parse([]string{"-swc-check-limit", c.arg}); err != nil {
			t.Fatal(err)
		}
		_, err := f.Options()
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-swc-check-limit") {
				t.Errorf("-swc-check-limit %s: err %v, want a range error", c.arg, err)
			}
		} else if err != nil {
			t.Errorf("-swc-check-limit %s: %v", c.arg, err)
		}
	}
}
