package driver

import (
	"strings"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/profiler"
)

// fakePass reads facts its Requires declaration does not admit — the
// mistake that would let a reordered pipeline silently read a missing or
// stale analysis if the fact guard did not exist.
type fakePass struct {
	name     string
	requires []FactKind
	run      func(*Context) error
}

func (p *fakePass) Name() string            { return p.name }
func (p *fakePass) Requires() []FactKind    { return p.requires }
func (p *fakePass) Invalidates() []FactKind { return nil }
func (p *fakePass) Run(ctx *Context) error  { return p.run(ctx) }

func lowerTestProg(t *testing.T) *ir.Program {
	t.Helper()
	const src = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
metadata { rx_port:16; }
module m {
	uint counter;
	ppf f(ether ph) {
		counter = ph->type + 1;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}
`
	astProg, err := parser.Parse("p.baker", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(astProg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(tp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestUndeclaredFactReadFails is the negative half of the fact guard: a
// pass whose Requires declaration is deliberately wrong (it reads the
// profile fact without declaring it) must fail the compile loudly, so an
// undeclared dependency cannot survive a single compile.
func TestUndeclaredFactReadFails(t *testing.T) {
	prog := lowerTestProg(t)
	r := newRunner(prog, Config{VerifyIR: VerifyOff})
	r.ctx.SetProfile(&profiler.Stats{})

	bad := &fakePass{
		name:     "bad-reader",
		requires: nil, // wrong: Run reads FactProfile
		run: func(ctx *Context) error {
			_ = ctx.Profile()
			return nil
		},
	}
	err := r.runPass(bad)
	if err == nil {
		t.Fatal("undeclared fact read did not fail the compile")
	}
	if !strings.Contains(err.Error(), "undeclared read") ||
		!strings.Contains(err.Error(), "profile") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDeclaredFactReadPasses is the positive control: the same read with a
// correct Requires declaration succeeds.
func TestDeclaredFactReadPasses(t *testing.T) {
	prog := lowerTestProg(t)
	r := newRunner(prog, Config{VerifyIR: VerifyOff})
	r.ctx.SetProfile(&profiler.Stats{})

	good := &fakePass{
		name:     "good-reader",
		requires: []FactKind{FactProfile},
		run: func(ctx *Context) error {
			_ = ctx.Profile()
			return nil
		},
	}
	if err := r.runPass(good); err != nil {
		t.Fatalf("declared fact read failed: %v", err)
	}
}

// TestOptionalSOARReadExempt pins SOARIfValid's contract: exempt from the
// Requires guard (the documented optional read), and it never computes
// the facts itself.
func TestOptionalSOARReadExempt(t *testing.T) {
	prog := lowerTestProg(t)
	r := newRunner(prog, Config{VerifyIR: VerifyOff})

	p := &fakePass{
		name:     "optional-reader",
		requires: nil,
		run: func(ctx *Context) error {
			if s := ctx.SOARIfValid(); s != nil {
				t.Error("SOARIfValid returned facts nobody computed")
			}
			return nil
		},
	}
	if err := r.runPass(p); err != nil {
		t.Fatalf("optional SOAR read was rejected: %v", err)
	}
}
