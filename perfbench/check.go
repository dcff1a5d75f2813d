package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ledger counts the operations a run attempted and those that failed:
// repetitions (each with its compiles and machine runs), recompiles,
// control-plane updates and output checks.
type ledger struct {
	attempted, failed int
	errs              []string
}

// note records one attempted operation; a non-nil err counts it failed.
// It reports whether the operation succeeded.
func (l *ledger) note(what string, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		l.errs = append(l.errs, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// noteN records n attempted operations of which bad failed.
func (l *ledger) noteN(what string, n, bad int) {
	l.attempted += n
	if bad > 0 {
		l.failed += bad
		l.errs = append(l.errs, fmt.Sprintf("%s: %d of %d failed", what, bad, n))
	}
}

// failedFrac is failed operations over attempted ones.
func (l *ledger) failedFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// fingerprint is the deterministic output of one repetition: every
// simulated metric, Table 1 row and Figure 6 point, rendered as text
// lines. Host timings never enter it.
type fingerprint []string

func (f *fingerprint) add(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

func (f fingerprint) String() string { return strings.Join(f, "\n") + "\n" }

// diffFingerprints returns nil when want and got are identical, else an
// error naming the first line that differs.
func diffFingerprints(want, got string) error {
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Errorf("simulated output changed at line %d: %q, was %q", i+1, b, a)
		}
	}
	return errors.New("simulated output changed")
}

// checkStored compares fp with the fingerprint an earlier run of the same
// workload and seed stored at path, storing fp when there is none yet.
func checkStored(path, fp string) error {
	old, err := os.ReadFile(path)
	if err == nil {
		return diffFingerprints(string(old), fp)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fp), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
