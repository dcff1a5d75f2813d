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

// TestDumpIRPassNames: -dump-ir accepts "all" and every compiler pass name,
// including one that some levels do not schedule, and rejects anything
// else with the valid set in the error.
func TestDumpIRPassNames(t *testing.T) {
	for _, c := range []struct {
		arg     string
		wantErr bool
	}{
		{"all", false},
		{"pac", false},
		{"soar", false},
		{"codegen", false},
		{"pacc", true},
		{"bogus", true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := RegisterCommonFlags(fs)
		if err := fs.Parse([]string{"-dump-ir", c.arg}); err != nil {
			t.Fatal(err)
		}
		_, err := f.Options()
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "all|profile|inline+scalar|soar|pac|") {
				t.Errorf("-dump-ir %s: err %v, want an error listing the valid passes", c.arg, err)
			}
		} else if err != nil {
			t.Errorf("-dump-ir %s: %v", c.arg, err)
		}
	}
}
