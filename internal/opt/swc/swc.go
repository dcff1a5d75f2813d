// Package swc implements the delayed-update software-controlled cache of
// §5.2. The IXP's microengines have no hardware caches, but each ME has a
// 16-entry CAM and fast Local Memory; Shangri-La caches hot, rarely
// written, unprotected global structures there, checking the home location
// for updates only every check_limit packets (Figure 8). Stale reads cause
// at most bounded packet-delivery errors, which network protocols
// tolerate — that is the delayed-update trade.
//
// Candidate selection follows the paper: frequently read structures with
// high estimated hit rates, infrequently (or never) written on the data
// path, and not protected by critical sections (a cached copy of a
// lock-protected structure would break the lock's guarantees). The
// check-rate comes from Equation 2:
//
//	r_load_check = r_store × r_load / r_error
//
// so fewer expected stores or loads lower the required check rate.
//
// The transform rewrites each cacheable load in ME code into
//
//	hit, ent, v… = cam_lookup(key)            (OpCacheLookup)
//	if !hit { v… = load home; cam_fill ent } (original load + OpCacheFill)
//
// and prepends the per-packet delayed-update check to the aggregate entry:
// every check_limit packets the ME compares the structure's shared update
// version (bumped by the store path, which runs on the XScale) against the
// version it last observed — kept in per-ME Local Memory — and flushes its
// cached lines when they differ.
//
// The version/seen split matters with several MEs running the same
// aggregate: a shared boolean flag that a checking ME clears after
// flushing would hide the update from every other ME that had not checked
// yet. With a monotonic version, no ME ever writes shared state on the
// check path, so each ME independently notices every update.
package swc

import (
	"fmt"
	"sort"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/profiler"
)

// Config tunes candidate selection.
type Config struct {
	// MinReadsPerPacket: structures read less often than this are not
	// worth caching.
	MinReadsPerPacket float64
	// MinHitRate is the minimum estimated 16-entry hit rate.
	MinHitRate float64
	// MaxWriteRatio is the maximum writes/reads ratio.
	MaxWriteRatio float64
	// ErrorRate is the user-specified maximum tolerable per-packet
	// delivery error rate (r_error in Equation 2).
	ErrorRate float64
	// MaxLineWords bounds cacheable access width (a CAM entry maps one
	// Local-Memory line; 8 words = 32 bytes).
	MaxLineWords int
	// MaxCheckLimit, when non-zero, caps every candidate's Equation-2
	// check limit. Profiles with no observed data-path writes drive the
	// required check rate to zero (limit 2^20 packets), which is correct
	// for a static table but makes a control-plane update invisible for
	// the whole window; churn experiments bound the staleness by capping
	// the limit.
	MaxCheckLimit uint32
}

// DefaultConfig mirrors the paper's setting: tolerate one delivery error
// per million packets.
func DefaultConfig() Config {
	return Config{
		MinReadsPerPacket: 0.25,
		MinHitRate:        0.70,
		MaxWriteRatio:     0.05,
		ErrorRate:         1e-6,
		MaxLineWords:      8,
	}
}

// CheckRate implements Equation 2: the minimum per-packet rate of home-
// location update checks given expected per-packet store and load rates
// and the tolerated error rate.
func CheckRate(rStore, rLoad, rError float64) float64 {
	if rError <= 0 {
		return 1
	}
	return rStore * rLoad / rError
}

// CheckLimit converts a check rate into the "check every N packets"
// counter limit used by the generated code, clamped to a sane range.
func CheckLimit(rate float64) uint32 {
	if rate >= 1 {
		return 1
	}
	if rate <= 0 {
		return 1 << 20
	}
	n := uint32(1 / rate)
	if n < 1 {
		n = 1
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

// Candidate is one global selected for software caching.
type Candidate struct {
	Global *types.Global
	// Flag is the shared scratch word holding the structure's update
	// version; the store path increments it.
	Flag *types.Global
	// Seen is the per-ME Local-Memory word holding the version this ME
	// last flushed against.
	Seen       *types.Global
	CheckLimit uint32
	HitRate    float64
}

// Stats reports the transform's effect.
type Stats struct {
	Candidates   int
	LoadsCached  int
	StoresTagged int
}

// SelectCandidates picks cacheable globals from profile statistics.
func SelectCandidates(prog *ir.Program, stats *profiler.Stats, cfg Config) []*Candidate {
	var names []string
	for name := range prog.Types.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Candidate
	for _, name := range names {
		g := prog.Types.Globals[name]
		if g.Synthetic {
			continue
		}
		gs := stats.Globals[name]
		if gs == nil || stats.Packets == 0 {
			continue
		}
		reads := float64(gs.Reads) / float64(stats.Packets)
		writes := float64(gs.Writes) / float64(stats.Packets)
		if reads < cfg.MinReadsPerPacket {
			continue
		}
		if gs.Reads > 0 && float64(gs.Writes)/float64(gs.Reads) > cfg.MaxWriteRatio {
			continue
		}
		if gs.InCritical {
			continue // lock-protected: caching would break the protocol
		}
		hr := gs.EstHitRate()
		if hr < cfg.MinHitRate {
			continue
		}
		limit := CheckLimit(CheckRate(writes, reads, cfg.ErrorRate))
		if cfg.MaxCheckLimit != 0 && limit > cfg.MaxCheckLimit {
			limit = cfg.MaxCheckLimit
		}
		out = append(out, &Candidate{Global: g, CheckLimit: limit, HitRate: hr})
	}
	return out
}

// synthGlobal returns the named synthetic global, creating it on first
// use. Re-applying SWC over a shared types.Program (a driver.Session
// recompiles fresh CloneProgram copies, which share Types)
// must reuse the words it synthesized before — their identity is the
// contract between already-generated store paths and new check code. A
// non-synthetic name collision is still an error.
func synthGlobal(prog *ir.Program, name, module string, space types.MemSpace) (*types.Global, error) {
	if g := prog.Types.Globals[name]; g != nil {
		if !g.Synthetic || g.Space != space {
			return nil, fmt.Errorf("swc: global %s already exists", name)
		}
		return g, nil
	}
	g := &types.Global{
		Name:      name,
		Type:      types.UintType,
		Module:    module,
		Space:     space,
		Synthetic: true,
	}
	prog.Types.Globals[name] = g
	return g, nil
}

// Apply installs the software cache: synthesizes the update version and
// counter globals, rewrites ME loads, prepends delayed-update checks, and
// tags every store path (control/init/XScale code) with version bumps.
func Apply(prog *ir.Program, merged []*aggregate.Merged, cands []*Candidate, cfg Config) (*Stats, error) {
	st := &Stats{Candidates: len(cands)}
	if len(cands) == 0 {
		return st, nil
	}
	// Synthesize the shared version words (Scratch), the per-ME seen
	// words and packet counter (Local Memory).
	var err error
	for _, c := range cands {
		if c.Flag, err = synthGlobal(prog, c.Global.Name+"$upd", c.Global.Module, types.SpaceScratch); err != nil {
			return nil, err
		}
		if c.Seen, err = synthGlobal(prog, c.Global.Name+"$seen", c.Global.Module, types.SpaceLocal); err != nil {
			return nil, err
		}
	}
	counter, err := synthGlobal(prog, "$swc_count", "", types.SpaceLocal)
	if err != nil {
		return nil, err
	}

	minLimit := cands[0].CheckLimit
	for _, c := range cands {
		if c.CheckLimit < minLimit {
			minLimit = c.CheckLimit
		}
	}

	// Store-path instrumentation applies to every function that can write
	// a candidate outside the MEs: control, init, and XScale-aggregate
	// PPFs in the base program. (ME code never writes candidates: the
	// write-ratio filter already guaranteed the data path only reads.)
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		st.StoresTagged += tagStores(fn, cands)
	}
	for _, m := range merged {
		if m.Agg.Target != aggregate.TargetME {
			for _, e := range m.Entries {
				st.StoresTagged += tagStores(e.Func, cands)
			}
			continue
		}
		for _, e := range m.Entries {
			st.LoadsCached += rewriteLoads(e.Func, cands, cfg)
			prependCheck(e.Func, cands, counter, minLimit)
		}
	}
	return st, nil
}

// tagStores appends "flag <- flag + 1" after every store to a candidate:
// the store path bumps the structure's update version. Store paths run on
// the XScale (controls execute run-to-completion at a single simulated
// instant), so the read-modify-write cannot tear; no ME ever writes the
// version, so checking MEs cannot race each other into missing an update.
func tagStores(fn *ir.Func, cands []*Candidate) int {
	byGlobal := map[*types.Global]*Candidate{}
	for _, c := range cands {
		byGlobal[c.Global] = c
	}
	n := 0
	for _, b := range fn.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			out = append(out, in)
			if in.Op != ir.OpStore {
				continue
			}
			c := byGlobal[in.Global]
			if c == nil {
				continue
			}
			ver := fn.NewReg(ir.ClassWord)
			one := fn.NewReg(ir.ClassWord)
			ver1 := fn.NewReg(ir.ClassWord)
			out = append(out,
				&ir.Instr{Op: ir.OpLoad, Pos: in.Pos, Global: c.Flag,
					Width: 4, Dst: []ir.Reg{ver}, Args: []ir.Reg{ir.NoReg}},
				&ir.Instr{Op: ir.OpConst, Pos: in.Pos, Dst: []ir.Reg{one}, Imm: 1},
				&ir.Instr{Op: ir.OpAdd, Pos: in.Pos, Dst: []ir.Reg{ver1}, Args: []ir.Reg{ver, one}},
				&ir.Instr{Op: ir.OpStore, Pos: in.Pos, Global: c.Flag,
					Width: 4, Args: []ir.Reg{ir.NoReg, ver1}})
			n++
		}
		b.Instrs = out
	}
	return n
}

// rewriteLoads converts candidate loads into lookup/miss-fill sequences.
func rewriteLoads(fn *ir.Func, cands []*Candidate, cfg Config) int {
	byGlobal := map[*types.Global]*Candidate{}
	for _, c := range cands {
		byGlobal[c.Global] = c
	}
	n := 0
	// Collect first (the rewrite splits blocks).
	type site struct {
		b   *ir.Block
		idx int
	}
	var sites []site
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpLoad && byGlobal[in.Global] != nil && len(in.Dst) <= cfg.MaxLineWords {
				sites = append(sites, site{b: b, idx: i})
			}
		}
	}
	// Rewrite back-to-front per block so indices stay valid.
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].b != sites[j].b {
			return sites[i].b.ID < sites[j].b.ID
		}
		return sites[i].idx > sites[j].idx
	})
	for _, s := range sites {
		rewriteOneLoad(fn, s.b, s.idx)
		n++
	}
	fn.ComputeCFG()
	return n
}

// rewriteOneLoad splits the block at the load:
//
//	  ... hit, ent, t… = cachelookup; condbr hit -> bHit, bMiss
//	bMiss: d… = load (original); cachefill ent; br bJoin
//	bHit:  d… = mov t…; br bJoin
//	bJoin: rest
//
// The CAM entry register ent (the matching entry on a hit, the LRU
// victim on a miss) flows from each lookup into its own fill: the tag
// write and the line write must land on the same entry, and a global
// can be cached at several sites of one function, so the entry cannot
// be resolved per global at codegen time.
func rewriteOneLoad(fn *ir.Func, b *ir.Block, idx int) {
	load := b.Instrs[idx]
	rest := append([]*ir.Instr(nil), b.Instrs[idx+1:]...)

	hit := fn.NewReg(ir.ClassWord)
	ent := fn.NewReg(ir.ClassWord)
	tmps := make([]ir.Reg, len(load.Dst))
	for i := range tmps {
		tmps[i] = fn.NewReg(ir.ClassWord)
	}
	bMiss := fn.NewBlock()
	bHit := fn.NewBlock()
	bJoin := fn.NewBlock()

	lookup := &ir.Instr{
		Op:     ir.OpCacheLookup,
		Pos:    load.Pos,
		Dst:    append([]ir.Reg{hit, ent}, tmps...),
		Args:   load.Args, // index register (possibly NoReg)
		Global: load.Global,
		Off:    load.Off,
		Width:  load.Width,
	}
	b.Instrs = append(b.Instrs[:idx:idx], lookup,
		&ir.Instr{Op: ir.OpCondBr, Pos: load.Pos, Args: []ir.Reg{hit},
			Blocks: []*ir.Block{bHit, bMiss}})

	idxReg := ir.NoReg
	if len(load.Args) > 0 {
		idxReg = load.Args[0]
	}
	fill := &ir.Instr{
		Op:     ir.OpCacheFill,
		Pos:    load.Pos,
		Args:   append([]ir.Reg{ent, idxReg}, load.Dst...),
		Global: load.Global,
		Off:    load.Off,
		Width:  load.Width,
	}
	bMiss.Instrs = append(bMiss.Instrs, load, fill,
		&ir.Instr{Op: ir.OpBr, Pos: load.Pos, Blocks: []*ir.Block{bJoin}})

	for i, d := range load.Dst {
		bHit.Instrs = append(bHit.Instrs, &ir.Instr{
			Op: ir.OpMov, Pos: load.Pos, Dst: []ir.Reg{d}, Args: []ir.Reg{tmps[i]}})
	}
	bHit.Instrs = append(bHit.Instrs,
		&ir.Instr{Op: ir.OpBr, Pos: load.Pos, Blocks: []*ir.Block{bJoin}})

	bJoin.Instrs = rest
}

// prependCheck inserts the Figure 8 delayed-update check at the entry:
//
//	count++
//	if count > limit {
//	    count = 0
//	    for each cand: if ver != seen { flush; seen = ver }
//	}
//
// seen lives in per-ME Local Memory, so every ME tracks the shared
// version independently and the check path writes no shared state.
func prependCheck(fn *ir.Func, cands []*Candidate, counter *types.Global, limit uint32) {
	entry := fn.Entry
	rest := append([]*ir.Instr(nil), entry.Instrs...)

	bCheck := fn.NewBlock()
	bBody := fn.NewBlock()
	bBody.Instrs = rest

	cnt := fn.NewReg(ir.ClassWord)
	one := fn.NewReg(ir.ClassWord)
	cnt1 := fn.NewReg(ir.ClassWord)
	lim := fn.NewReg(ir.ClassWord)
	cond := fn.NewReg(ir.ClassWord)
	entry.Instrs = []*ir.Instr{
		{Op: ir.OpLoad, Global: counter, Width: 4, Dst: []ir.Reg{cnt}, Args: []ir.Reg{ir.NoReg}},
		{Op: ir.OpConst, Dst: []ir.Reg{one}, Imm: 1},
		{Op: ir.OpAdd, Dst: []ir.Reg{cnt1}, Args: []ir.Reg{cnt, one}},
		{Op: ir.OpStore, Global: counter, Width: 4, Args: []ir.Reg{ir.NoReg, cnt1}},
		{Op: ir.OpConst, Dst: []ir.Reg{lim}, Imm: uint64(limit)},
		{Op: ir.OpLtU, Dst: []ir.Reg{cond}, Args: []ir.Reg{lim, cnt1}}, // limit < count
		{Op: ir.OpCondBr, Args: []ir.Reg{cond}, Blocks: []*ir.Block{bCheck, bBody}},
	}

	// bCheck: reset counter, test each candidate's flag, flush when set.
	zero := fn.NewReg(ir.ClassWord)
	bCheck.Instrs = append(bCheck.Instrs,
		&ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{zero}},
		&ir.Instr{Op: ir.OpStore, Global: counter, Width: 4, Args: []ir.Reg{ir.NoReg, zero}})
	cur := bCheck
	for _, c := range cands {
		ver := fn.NewReg(ir.ClassWord)
		seen := fn.NewReg(ir.ClassWord)
		stale := fn.NewReg(ir.ClassWord)
		bFlush := fn.NewBlock()
		bNext := fn.NewBlock()
		cur.Instrs = append(cur.Instrs,
			&ir.Instr{Op: ir.OpLoad, Global: c.Flag, Width: 4, Dst: []ir.Reg{ver}, Args: []ir.Reg{ir.NoReg}},
			&ir.Instr{Op: ir.OpLoad, Global: c.Seen, Width: 4, Dst: []ir.Reg{seen}, Args: []ir.Reg{ir.NoReg}},
			&ir.Instr{Op: ir.OpNe, Dst: []ir.Reg{stale}, Args: []ir.Reg{ver, seen}},
			&ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{stale}, Blocks: []*ir.Block{bFlush, bNext}})
		bFlush.Instrs = append(bFlush.Instrs,
			&ir.Instr{Op: ir.OpCacheFlush, Global: c.Global},
			&ir.Instr{Op: ir.OpStore, Global: c.Seen, Width: 4, Args: []ir.Reg{ir.NoReg, ver}},
			&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{bNext}})
		cur = bNext
	}
	cur.Instrs = append(cur.Instrs, &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{bBody}})
	fn.ComputeCFG()
}
