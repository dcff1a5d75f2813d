// The control-loop compiler. A Session holds one program at one
// configuration and recompiles it as control-plane policy deltas arrive:
// the compiler sits in the control loop ("A Fast Compiler for NetKAT"), so
// recompilation latency is a data-plane metric, not a build step.
//
// Every compile is a cold CompileIR over fresh clones. The pipeline is
// profile-guided, and every delta changes the profile, so a per-pass reuse
// cache could only skip the passes before any pass reads the profile — and
// hashing and snapshotting the IR after every pass cost more than those
// passes. A recompile is therefore bit-identical to a cold compile of the
// same configuration by construction.
package driver

import (
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// Delta is one control-plane policy change applied to a Session between
// compiles.
type Delta struct {
	// AddControls appends control calls to the session's Config.Controls
	// (the boot-time table population the profiler replays).
	AddControls []profiler.Control
}

// SessionStats counts a session's compiles.
type SessionStats struct {
	// Compiles is the number of Compile/Recompile calls that ran.
	Compiles int
	// PassesExecuted accumulates the pipeline passes of every compile.
	PassesExecuted int
	// PassesSkipped is always 0: every compile runs the whole pipeline.
	PassesSkipped int
}

// Session recompiles one program as its control configuration grows. It
// keeps the pristine lowered program, a pristine copy of the profile trace
// and the accumulated controls. Not safe for concurrent use.
type Session struct {
	cfg  Config
	base *ir.Program
	// trace is a pristine deep copy of cfg.ProfileTrace: interpreting the
	// trace mutates packets in place (the apps rewrite MACs, TTLs,
	// labels), so every compile profiles fresh clones — a recompile must
	// profile the same packets a cold compile would.
	trace []*packet.Packet
	stats SessionStats
}

// NewSession clones prog into a pristine base.
func NewSession(prog *ir.Program, cfg Config) (*Session, error) {
	return &Session{
		cfg:   cfg,
		base:  ir.CloneProgram(prog),
		trace: clonePackets(cfg.ProfileTrace),
	}, nil
}

// clonePackets deep-copies a profile trace.
func clonePackets(tr []*packet.Packet) []*packet.Packet {
	if tr == nil {
		return nil
	}
	out := make([]*packet.Packet, len(tr))
	for i, p := range tr {
		out[i] = p.Clone()
	}
	return out
}

// Config returns the session's current configuration (Controls grow as
// deltas are applied).
func (s *Session) Config() Config { return s.cfg }

// Stats returns the session's cumulative compile counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Recompile applies a policy delta and compiles.
func (s *Session) Recompile(d Delta) (*Result, error) {
	if len(d.AddControls) > 0 {
		ctrls := make([]profiler.Control, 0, len(s.cfg.Controls)+len(d.AddControls))
		ctrls = append(ctrls, s.cfg.Controls...)
		ctrls = append(ctrls, d.AddControls...)
		s.cfg.Controls = ctrls
	}
	return s.Compile()
}

// Compile runs the whole pipeline over fresh clones of the pristine
// program and profile trace: passes rewrite the program in place, and
// profiling rewrites trace packets in place.
func (s *Session) Compile() (*Result, error) {
	cfg := s.cfg
	cfg.ProfileTrace = clonePackets(s.trace)
	res, err := CompileIR(ir.CloneProgram(s.base), cfg)
	if err != nil {
		return nil, err
	}
	s.stats.Compiles++
	s.stats.PassesExecuted += len(res.Report.Passes)
	return res, nil
}
