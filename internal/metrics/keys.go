package metrics

import "fmt"

// Key names an instrument. Registry lookups take a Key rather than a bare
// string so that ad-hoc fmt.Sprintf key construction fails to compile at
// the call site: well-known instruments get a typed constructor below, and
// one constructor per key family keeps the naming scheme in one place.
// Untyped string literals still convert implicitly, so fixed-name callers
// (`reg.Counter("tx")`) are unaffected.
type Key string

// String returns the key's wire name (the map key in Snapshot output).
func (k Key) String() string { return string(k) }

// MEUtil is microengine i's utilization time-series (busy fraction per
// sample interval).
func MEUtil(i int) Key { return Key(fmt.Sprintf("me%d.util", i)) }

// CtrlSat is a memory controller's saturation time-series (occupancy
// fraction per sample interval); level is the controller name
// (scratch/sram/dram).
func CtrlSat(level string) Key { return Key("ctrl." + level + ".sat") }

// CtrlQueue is a memory controller's queue-backlog time-series (cycles of
// already-committed service ahead of a new request).
func CtrlQueue(level string) Key { return Key("ctrl." + level + ".queue") }

// RingOcc is scratch ring i's occupancy time-series (entries at each
// sample instant).
func RingOcc(i int) Key { return Key(fmt.Sprintf("ring%d.occ", i)) }

// PassRuns counts executions of a named compiler pass.
func PassRuns(pass string) Key { return Key("compile.pass." + pass + ".runs") }

// PassNanos accumulates a named compiler pass's wall-clock nanoseconds.
func PassNanos(pass string) Key { return Key("compile.pass." + pass + ".nanos") }

// PassVerifyNanos accumulates the IR-verification nanoseconds charged to a
// named compiler pass.
func PassVerifyNanos(pass string) Key { return Key("compile.pass." + pass + ".verify_nanos") }

// PassSizeDelta gauges a named compiler pass's last instruction-count
// delta (after - before; negative means the pass shrank the program).
func PassSizeDelta(pass string) Key { return Key("compile.pass." + pass + ".size_delta") }

// StallShareKey is the per-category stall-share gauge family exported from
// a stall breakdown (category as in ixp.Stall.StallShare, e.g.
// "mem_queue.dram").
func StallShareKey(category string) Key { return Key("stall.share." + category) }
