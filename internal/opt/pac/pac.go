// Package pac implements Packet Access Combining (§5.3.1): multiple
// protocol-field accesses through the same packet handle are merged into a
// single wide memory access, dramatically cutting per-packet DRAM (packet
// data) and SRAM (metadata) references — the paper's single most effective
// optimization.
//
// Combining follows the paper's criteria: equal packet_handles, byte
// ranges within one memory instruction's maximum width, a dominance
// relationship between the accesses, and no violated data dependencies.
// This implementation combines within basic blocks, where the dominance
// and post-dominance requirements hold trivially and dependence checking
// is a linear scan; after inlining (-O2) the hot packet-access sequences
// of real applications sit in straight-line code, which is where the
// paper's combining opportunities come from. Same-handle accesses keep
// their cluster open across non-overlapping stores; any potentially
// aliasing access (a different handle can denote the same packet) flushes.
//
// A combined load becomes one raw wide OpPktLoad into a run of word
// registers followed by shift/mask extraction of each field; a combined
// store becomes an optional read-modify-write wide load, per-field
// insertion arithmetic, and one raw wide OpPktStore. Extraction and
// insertion cost a few single-cycle ALU instructions, the trade the paper
// makes to save memory bandwidth.
package pac

import (
	"sort"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// Width caps per memory level: packet data lives in DRAM (64-byte bursts),
// metadata in SRAM (32-byte bursts) — §3.2.
const (
	MaxPktCombineBytes    = 64
	MaxMetaCombineBytes   = 32
	MaxGlobalCombineBytes = 32
)

// Stats reports what PAC did.
type Stats struct {
	LoadClusters    int // clusters of >=2 loads combined
	StoreClusters   int
	AccessesRemoved int // narrow accesses eliminated
}

// Run applies PAC to every function in the program.
func Run(p *ir.Program) *Stats {
	st := &Stats{}
	for _, name := range p.Order {
		runFunc(p.Types, p.Funcs[name], st)
	}
	return st
}

type accKind uint8

const (
	pktLoad accKind = iota
	pktStore
	metaLoad
	metaStore
	globalLoad
)

func (k accKind) isLoad() bool { return k == pktLoad || k == metaLoad || k == globalLoad }
func (k accKind) isMeta() bool { return k == metaLoad || k == metaStore }
func (k accKind) maxBytes() int {
	if k == globalLoad {
		return MaxGlobalCombineBytes
	}
	if k.isMeta() {
		return MaxMetaCombineBytes
	}
	return MaxPktCombineBytes
}

type access struct {
	idx   int
	in    *ir.Instr
	delta int32 // handle-alias displacement relative to the cluster's base
}

type cluster struct {
	kind   accKind
	handle ir.Reg // packet handle, or the index register for global loads
	global *types.Global
	accs   []access
}

// span returns the byte range [lo,hi) covered by the cluster's accesses.
func (c *cluster) span() (lo, hi int) {
	lo, hi = 1<<30, 0
	for _, a := range c.accs {
		var flo, fhi int
		if c.kind == globalLoad {
			flo, fhi = int(a.in.Off), int(a.in.Off)+4
		} else {
			flo, fhi = a.in.Field.ByteSpan()
			flo += int(a.delta)
			fhi += int(a.delta)
		}
		if flo < lo {
			lo = flo
		}
		if fhi > hi {
			hi = fhi
		}
	}
	return lo, hi
}

func runFunc(tp *types.Program, f *ir.Func, st *Stats) {
	for _, b := range f.Blocks {
		combineBlock(tp, f, b, st)
	}
}

type rewrite struct {
	insertAt int // instruction index the sequence replaces/precedes
	seq      []*ir.Instr
}

// hbase resolves a handle register to its aliasing base and byte
// displacement: packet_decap/packet_encap of fixed-size headers relate
// handles to the same packet at known relative offsets, so accesses
// through all of them can combine into one burst (the cross-header
// combining that collapses an app's per-packet DRAM traffic to the
// paper's one-read-one-write).
type hbase struct {
	base  ir.Reg
	delta int32
}

func combineBlock(tp *types.Program, f *ir.Func, b *ir.Block, st *Stats) {
	alias := map[ir.Reg]hbase{}
	resolve := func(r ir.Reg) hbase {
		if a, ok := alias[r]; ok {
			return a
		}
		return hbase{base: r}
	}
	isHandle := func(r ir.Reg) bool {
		return r != ir.NoReg && int(r) < len(f.RegClasses) && f.RegClasses[r] == ir.ClassHandle
	}
	open := map[[2]interface{}]*cluster{} // key: (kind, base handle)
	var done []*cluster

	// A flushed store cluster's wide store sinks to its last member's
	// index, which may be *after* a store member's original position. A
	// later load must therefore never hoist above that sink point (by
	// joining a load cluster whose first access precedes it), or it would
	// read the pre-store memory. Track the sink high-water mark per
	// domain (packet data / metadata).
	storeSink := map[bool]int{} // key: kind.isMeta()

	flush := func(c *cluster) {
		if c != nil && len(c.accs) >= 2 {
			if !c.kind.isLoad() {
				if s := c.accs[len(c.accs)-1].idx; s > storeSink[c.kind.isMeta()] {
					storeSink[c.kind.isMeta()] = s
				}
			}
			done = append(done, c)
		}
	}
	flushAll := func() {
		for k, c := range open {
			flush(c)
			delete(open, k)
		}
	}
	flushWhere := func(pred func(*cluster) bool) {
		for k, c := range open {
			if pred(c) {
				flush(c)
				delete(open, k)
			}
		}
	}

	// killDefs flushes clusters whose pending combination an instruction's
	// definitions invalidate: the cluster's handle / index register, or a
	// buffered store value.
	killDefs := func(in *ir.Instr) {
		for _, d := range in.Dst {
			flushWhere(func(c *cluster) bool {
				if c.handle == d {
					return true
				}
				if !c.kind.isLoad() {
					for _, a := range c.accs {
						if a.in.Args[1] == d {
							return true
						}
					}
				}
				return false
			})
		}
	}

	for idx, in := range b.Instrs {
		switch in.Op {
		case ir.OpMov:
			if len(in.Dst) == 1 && isHandle(in.Dst[0]) && len(in.Args) == 1 {
				killDefs(in)
				alias[in.Dst[0]] = resolve(in.Args[0])
				continue
			}
		case ir.OpDecap:
			killDefs(in)
			alias[in.Dst[0]] = hbase{base: in.Dst[0]}
			flushAll()
			continue
		case ir.OpEncap:
			killDefs(in)
			alias[in.Dst[0]] = hbase{base: in.Dst[0]}
			flushAll()
			continue
		case ir.OpPktCopy, ir.OpPktCreate:
			killDefs(in)
			if len(in.Dst) == 1 {
				alias[in.Dst[0]] = hbase{base: in.Dst[0]}
			}
			continue
		case ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
			if in.Field == nil || in.Field.Bits > 32 {
				flushAll() // raw access: already combined or unknown
				continue
			}
			kind := kindOf(in)
			hb := resolve(in.Args[0])
			h := hb.base
			delta := hb.delta
			if kind.isMeta() {
				delta = 0 // metadata is per packet, not per header
			}
			flo, fhi := in.Field.ByteSpan()
			flo += int(delta)
			fhi += int(delta)
			// Dependence maintenance. A load flushes store clusters whose
			// buffered (not-yet-written) range it may read: the combined
			// store sinks to the last access, so an intervening read of
			// an already-buffered field would miss the pending value.
			// A store does NOT flush load clusters — existing members
			// read at or before their original positions; the threat is
			// only to future joins, which safeToJoin rejects.
			if kind.isLoad() {
				flushWhere(func(c *cluster) bool {
					if c.kind == globalLoad || c.kind.isMeta() != kind.isMeta() || c.kind.isLoad() {
						return false
					}
					if c.handle != h {
						return true // possibly the same packet at another head
					}
					clo, chi := c.span()
					return flo < chi && clo < fhi // overlap through same base
				})
			}
			key := [2]interface{}{kind, h}
			c := open[key]
			// Never hoist a load above a sunk combined store: joining a
			// cluster whose first access precedes the domain's store-sink
			// high-water mark would move this read over that wide store.
			if c != nil && kind.isLoad() && c.accs[0].idx < storeSink[kind.isMeta()] {
				flush(c)
				c = nil
				delete(open, key)
			}
			if c != nil && len(c.accs) > 0 && !safeToJoin(b, c, idx, in, kind, delta, resolve) {
				flush(c)
				c = nil
				delete(open, key)
			}
			if c == nil {
				c = &cluster{kind: kind, handle: h}
				open[key] = c
			}
			// Width bound: if adding this access exceeds the memory
			// instruction width, flush and restart the cluster.
			c.accs = append(c.accs, access{idx: idx, in: in, delta: delta})
			if lo, hi := c.span(); wordAlignedWidth(lo, hi) > c.kind.maxBytes() {
				c.accs = c.accs[:len(c.accs)-1]
				flush(c)
				nc := &cluster{kind: kind, handle: h,
					accs: []access{{idx: idx, in: in, delta: delta}}}
				open[key] = nc
			}
			killDefs(in)
			continue
		case ir.OpCall, ir.OpChanPut, ir.OpPktDrop,
			ir.OpAddTail, ir.OpRemoveTail, ir.OpLockAcquire, ir.OpLockRelease,
			ir.OpCacheFlush, ir.OpCacheFill, ir.OpCacheLookup:
			flushAll()
		case ir.OpLoad:
			if len(in.Dst) != 1 {
				flushAll()
				continue
			}
			ireg := ir.NoReg
			if len(in.Args) > 0 {
				ireg = in.Args[0]
			}
			key := [2]interface{}{in.Global.Name, ireg}
			c := open[key]
			if c != nil && len(c.accs) > 0 && !safeToJoinGlobal(b, c, idx, in) {
				flush(c)
				c = nil
				delete(open, key)
			}
			if c == nil {
				c = &cluster{kind: globalLoad, handle: ireg, global: in.Global}
				open[key] = c
			}
			c.accs = append(c.accs, access{idx: idx, in: in})
			if lo, hi := c.span(); wordAlignedWidth(lo, hi) > c.kind.maxBytes() {
				c.accs = c.accs[:len(c.accs)-1]
				flush(c)
				nc := &cluster{kind: globalLoad, handle: ireg, global: in.Global,
					accs: []access{{idx: idx, in: in}}}
				open[key] = nc
			}
			killDefs(in)
			continue
		case ir.OpStore:
			// A store to global G flushes G's load clusters (conservative:
			// any offset); other globals never alias.
			flushWhere(func(c *cluster) bool {
				return c.kind == globalLoad && c.global == in.Global
			})
		}
		// Register kills: redefining a cluster's handle or a buffered
		// store value invalidates the pending combination.
		killDefs(in)
	}
	flushAll()

	if len(done) == 0 {
		return
	}
	// Clusters reach done in map-iteration order when several flush at
	// once; rewrite in program order so the registers the combinations
	// allocate are numbered deterministically (compile output must be
	// byte-stable for the recompile-vs-cold differential).
	sort.Slice(done, func(i, j int) bool {
		return done[i].accs[0].idx < done[j].accs[0].idx
	})
	// Build rewrites.
	removed := map[*ir.Instr]bool{}
	inserts := map[int][]*ir.Instr{}
	for _, c := range done {
		var rw rewrite
		if c.kind == globalLoad {
			rw = combineGlobalLoads(f, c)
			st.LoadClusters++
		} else if c.kind.isLoad() {
			rw = combineLoads(f, c)
			st.LoadClusters++
		} else {
			rw = combineStores(f, c)
			st.StoreClusters++
		}
		st.AccessesRemoved += len(c.accs) - 1
		for _, a := range c.accs {
			removed[a.in] = true
		}
		inserts[rw.insertAt] = append(inserts[rw.insertAt], rw.seq...)
	}
	var out []*ir.Instr
	for idx, in := range b.Instrs {
		if seq, ok := inserts[idx]; ok {
			out = append(out, seq...)
		}
		if !removed[in] {
			out = append(out, in)
		}
	}
	b.Instrs = out
}

// safeToJoin checks the motion-range dependences for adding access `in`
// (at index idx) to cluster c:
//
//   - load clusters hoist the access to the first access's position, so no
//     instruction in (first, idx) may define or use the new access's
//     destination, and no same-handle field store in that range may
//     overlap the new access's byte range (the hoisted read would see the
//     pre-store value);
//   - store clusters sink earlier stores to this position, so no
//     instruction in (prev, idx) may redefine any buffered value register
//     or the handle (checked pairwise: gaps tile the whole motion range).
func safeToJoin(b *ir.Block, c *cluster, idx int, in *ir.Instr, kind accKind,
	delta int32, resolve func(ir.Reg) hbase) bool {
	if kind.isLoad() {
		first := c.accs[0].idx
		dst := in.Dst[0]
		flo, fhi := in.Field.ByteSpan()
		flo += int(delta)
		fhi += int(delta)
		for i := first + 1; i < idx; i++ {
			mid := b.Instrs[i]
			for _, d := range mid.Dst {
				if d == dst {
					return false
				}
			}
			for _, u := range mid.Args {
				if u == dst {
					return false
				}
			}
			if (mid.Op == ir.OpPktStore || mid.Op == ir.OpMetaStore) &&
				(mid.Op == ir.OpMetaStore) == kind.isMeta() {
				mb := resolve(mid.Args[0])
				if mid.Field == nil || mb.base != c.handle {
					return false // raw or possibly-aliasing store in range
				}
				slo, shi := mid.Field.ByteSpan()
				md := int(mb.delta)
				if kind.isMeta() {
					md = 0
				}
				if flo < shi+md && slo+md < fhi {
					return false
				}
			}
		}
		return true
	}
	prev := c.accs[len(c.accs)-1].idx
	for i := prev + 1; i < idx; i++ {
		mid := b.Instrs[i]
		for _, d := range mid.Dst {
			if d == c.handle {
				return false
			}
			for _, a := range c.accs {
				if a.in.Args[1] == d {
					return false
				}
			}
		}
	}
	return true
}

// safeToJoinGlobal checks motion-range dependences for hoisting a global
// load to the cluster's first access: nothing in (first, idx) may define
// or use the load's destination, define the index register, or store to
// the same global.
func safeToJoinGlobal(b *ir.Block, c *cluster, idx int, in *ir.Instr) bool {
	first := c.accs[0].idx
	dst := in.Dst[0]
	for i := first + 1; i < idx; i++ {
		mid := b.Instrs[i]
		for _, d := range mid.Dst {
			if d == dst || (c.handle != ir.NoReg && d == c.handle) {
				return false
			}
		}
		for _, u := range mid.Args {
			if u == dst {
				return false
			}
		}
		if mid.Op == ir.OpStore && mid.Global == c.global {
			return false
		}
	}
	return true
}

// combineGlobalLoads merges word loads of one global (same index register,
// nearby constant offsets) into a single wide burst; each original load
// becomes a register copy. Gap words land in scratch registers that DCE
// removes if unused.
func combineGlobalLoads(f *ir.Func, c *cluster) rewrite {
	lo, hi := c.span()
	wlo := lo &^ 3
	width := wordAlignedWidth(lo, hi)
	words := make([]ir.Reg, width/4)
	for i := range words {
		words[i] = f.NewReg(ir.ClassWord)
	}
	first := c.accs[0].in
	args := []ir.Reg{ir.NoReg}
	if c.handle != ir.NoReg {
		args[0] = c.handle
	}
	wide := &ir.Instr{
		Op:     ir.OpLoad,
		Pos:    first.Pos,
		Global: c.global,
		Off:    int32(wlo),
		Width:  width,
		Dst:    words,
		Args:   args,
	}
	seq := []*ir.Instr{wide}
	for _, a := range c.accs {
		wi := (int(a.in.Off) - wlo) / 4
		seq = append(seq, &ir.Instr{Op: ir.OpMov, Pos: a.in.Pos,
			Dst: []ir.Reg{a.in.Dst[0]}, Args: []ir.Reg{words[wi]}})
	}
	return rewrite{insertAt: c.accs[0].idx, seq: seq}
}

func kindOf(in *ir.Instr) accKind {
	switch in.Op {
	case ir.OpPktLoad:
		return pktLoad
	case ir.OpPktStore:
		return pktStore
	case ir.OpMetaLoad:
		return metaLoad
	}
	return metaStore
}

func wordAlignedWidth(lo, hi int) int {
	wlo := lo &^ 3
	whi := (hi + 3) &^ 3
	return whi - wlo
}

// combineLoads produces one wide raw load plus per-field extraction,
// inserted at the first access.
func combineLoads(f *ir.Func, c *cluster) rewrite {
	lo, hi := c.span()
	wlo := lo &^ 3
	width := wordAlignedWidth(lo, hi)
	words := make([]ir.Reg, width/4)
	for i := range words {
		words[i] = f.NewReg(ir.ClassWord)
	}
	wide := &ir.Instr{
		Op:        rawLoadOp(c.kind),
		Pos:       c.accs[0].in.Pos,
		Dst:       words,
		Args:      []ir.Reg{c.handle},
		Off:       int32(wlo),
		Width:     width,
		StaticOff: ir.UnknownOff,
	}
	seq := []*ir.Instr{wide}
	for _, a := range c.accs {
		seq = append(seq, extractField(f, a.in, a.delta, words, wlo)...)
	}
	return rewrite{insertAt: c.accs[0].idx, seq: seq}
}

// extractField emits shift/mask code producing a.in's original destination
// from the loaded word registers.
func extractField(f *ir.Func, orig *ir.Instr, delta int32, words []ir.Reg, wlo int) []*ir.Instr {
	fld := orig.Field
	dst := orig.Dst[0]
	relBit := fld.BitOff + int(delta)*8 - wlo*8
	wi := relBit / 32
	bitInWord := relBit % 32
	bits := fld.Bits
	var seq []*ir.Instr
	emit := func(op ir.Op, d ir.Reg, args ...ir.Reg) {
		seq = append(seq, &ir.Instr{Op: op, Pos: orig.Pos, Dst: []ir.Reg{d}, Args: args})
	}
	konst := func(v uint32) ir.Reg {
		r := f.NewReg(ir.ClassWord)
		seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: orig.Pos, Dst: []ir.Reg{r}, Imm: uint64(v)})
		return r
	}
	mask := uint32(0xffffffff)
	if bits < 32 {
		mask = (1 << uint(bits)) - 1
	}
	if bitInWord+bits <= 32 {
		w := words[wi]
		sh := 32 - bitInWord - bits
		cur := w
		if sh > 0 {
			t := f.NewReg(ir.ClassWord)
			emit(ir.OpShrU, t, cur, konst(uint32(sh)))
			cur = t
		}
		if bits < 32 {
			emit(ir.OpAnd, dst, cur, konst(mask))
		} else {
			emit(ir.OpMov, dst, cur)
		}
		return seq
	}
	// Field spans two words: hiBits from words[wi], loBits from words[wi+1].
	hiBits := 32 - bitInWord
	loBits := bits - hiBits
	hiPart := f.NewReg(ir.ClassWord)
	emit(ir.OpAnd, hiPart, words[wi], konst((1<<uint(hiBits))-1))
	hiShifted := f.NewReg(ir.ClassWord)
	emit(ir.OpShl, hiShifted, hiPart, konst(uint32(loBits)))
	loPart := f.NewReg(ir.ClassWord)
	emit(ir.OpShrU, loPart, words[wi+1], konst(uint32(32-loBits)))
	emit(ir.OpOr, dst, hiShifted, loPart)
	return seq
}

// combineStores produces (optionally) a wide read-modify-write load,
// per-field insertion arithmetic and one wide raw store, inserted at the
// last access so every stored value is available.
func combineStores(f *ir.Func, c *cluster) rewrite {
	lo, hi := c.span()
	wlo := lo &^ 3
	width := wordAlignedWidth(lo, hi)
	nwords := width / 4
	words := make([]ir.Reg, nwords)
	var seq []*ir.Instr
	pos := c.accs[len(c.accs)-1].in.Pos

	covered := coverageBits(c, wlo, width)
	full := true
	for _, cw := range covered {
		if cw != 0xffffffff {
			full = false
			break
		}
	}
	if full {
		for i := range words {
			r := f.NewReg(ir.ClassWord)
			words[i] = r
			seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: pos, Dst: []ir.Reg{r}})
		}
	} else {
		// Read-modify-write: fetch the range first.
		for i := range words {
			words[i] = f.NewReg(ir.ClassWord)
		}
		seq = append(seq, &ir.Instr{
			Op:        rawLoadOp(loadKindFor(c.kind)),
			Pos:       pos,
			Dst:       append([]ir.Reg(nil), words...),
			Args:      []ir.Reg{c.handle},
			Off:       int32(wlo),
			Width:     width,
			StaticOff: ir.UnknownOff,
		})
	}
	// Apply insertions in program order so later stores win overlaps.
	for _, a := range c.accs {
		ins, nw := insertField(f, a.in, a.delta, words, wlo)
		seq = append(seq, ins...)
		words = nw
	}
	store := &ir.Instr{
		Op:        rawStoreOp(c.kind),
		Pos:       pos,
		Args:      append([]ir.Reg{c.handle}, words...),
		Off:       int32(wlo),
		Width:     width,
		StaticOff: ir.UnknownOff,
	}
	seq = append(seq, store)
	return rewrite{insertAt: c.accs[len(c.accs)-1].idx, seq: seq}
}

// coverageBits returns, per word of the range, a bitmask (big-endian bit 0
// = MSB) of bits covered by the cluster's stored fields.
func coverageBits(c *cluster, wlo, width int) []uint32 {
	cov := make([]uint32, width/4)
	for _, a := range c.accs {
		fld := a.in.Field
		rel := fld.BitOff + int(a.delta)*8 - wlo*8
		for i := 0; i < fld.Bits; i++ {
			bit := rel + i
			cov[bit/32] |= 1 << uint(31-bit%32)
		}
	}
	return cov
}

// insertField emits code updating the word registers with one stored
// field, returning the updated register slice (modified words get fresh
// registers to keep the IR in definition-before-use form).
func insertField(f *ir.Func, orig *ir.Instr, delta int32, words []ir.Reg, wlo int) ([]*ir.Instr, []ir.Reg) {
	fld := orig.Field
	val := orig.Args[1]
	relBit := fld.BitOff + int(delta)*8 - wlo*8
	wi := relBit / 32
	bitInWord := relBit % 32
	bits := fld.Bits
	var seq []*ir.Instr
	emit := func(op ir.Op, d ir.Reg, args ...ir.Reg) {
		seq = append(seq, &ir.Instr{Op: op, Pos: orig.Pos, Dst: []ir.Reg{d}, Args: args})
	}
	konst := func(v uint32) ir.Reg {
		r := f.NewReg(ir.ClassWord)
		seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: orig.Pos, Dst: []ir.Reg{r}, Imm: uint64(v)})
		return r
	}
	out := append([]ir.Reg(nil), words...)
	insertInto := func(wi, shift, width int, src ir.Reg) {
		mask := uint32(0xffffffff)
		if width < 32 {
			mask = (1 << uint(width)) - 1
		}
		placed := mask << uint(shift)
		vmask := f.NewReg(ir.ClassWord)
		emit(ir.OpAnd, vmask, src, konst(mask))
		vsh := vmask
		if shift > 0 {
			vsh = f.NewReg(ir.ClassWord)
			emit(ir.OpShl, vsh, vmask, konst(uint32(shift)))
		}
		cleared := f.NewReg(ir.ClassWord)
		emit(ir.OpAnd, cleared, out[wi], konst(^placed))
		nw := f.NewReg(ir.ClassWord)
		emit(ir.OpOr, nw, cleared, vsh)
		out[wi] = nw
	}
	if bitInWord+bits <= 32 {
		insertInto(wi, 32-bitInWord-bits, bits, val)
		return seq, out
	}
	hiBits := 32 - bitInWord
	loBits := bits - hiBits
	// High part: field's top hiBits go to the low bits of words[wi].
	hiVal := f.NewReg(ir.ClassWord)
	emit(ir.OpShrU, hiVal, val, konst(uint32(loBits)))
	insertInto(wi, 0, hiBits, hiVal)
	// Low part: field's bottom loBits go to the top of words[wi+1].
	insertInto(wi+1, 32-loBits, loBits, val)
	return seq, out
}

func rawLoadOp(k accKind) ir.Op {
	if k.isMeta() {
		return ir.OpMetaLoad
	}
	return ir.OpPktLoad
}

func rawStoreOp(k accKind) ir.Op {
	if k.isMeta() {
		return ir.OpMetaStore
	}
	return ir.OpPktStore
}

func loadKindFor(k accKind) accKind {
	if k.isMeta() {
		return metaLoad
	}
	return pktLoad
}

var _ = types.WordBytes // keep the types import for ByteSpan documentation
