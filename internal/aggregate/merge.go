package aggregate

import (
	"fmt"
	"sort"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
)

// ChannelClass says how the runtime realizes one channel given the plan.
type ChannelClass int

const (
	// ChanExternal crosses aggregates (or reaches tx): a scratch ring.
	ChanExternal ChannelClass = iota
	// ChanInternal is producer and consumer in the same aggregate with no
	// cycle: converted to a direct call and inlined away.
	ChanInternal
	// ChanLoopback stays within one aggregate but participates in a
	// wiring cycle (an MPLS label-stack pop loop): the dispatch loop
	// requeues it locally instead of calling (recursion is forbidden).
	ChanLoopback
)

func (c ChannelClass) String() string {
	switch c {
	case ChanInternal:
		return "internal"
	case ChanLoopback:
		return "loopback"
	}
	return "external"
}

// Entry is one compiled entry point of an aggregate: the merged function
// invoked by the dispatch loop for packets arriving on In.
type Entry struct {
	// In is the channel feeding this entry; nil means the rx source.
	In *types.Channel
	// Func is the merged, inlined function (parameter: the packet
	// handle).
	Func *ir.Func
}

// Merged is an aggregate's compiled view: a self-contained IR program with
// merged entry functions, plus the classification of every channel the
// aggregate touches.
type Merged struct {
	Agg     *Aggregate
	Prog    *ir.Program
	Entries []*Entry
}

// ClassifyChannels decides every channel's implementation class under the
// plan. Channels whose producer and consumer share an aggregate become
// calls when the PPF wiring stays acyclic, loopbacks otherwise.
func ClassifyChannels(prog *ir.Program, plan *Plan) map[*types.Channel]ChannelClass {
	classes := map[*types.Channel]ChannelClass{}
	// Producer sets per channel.
	producers := map[*types.Channel][]string{}
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		if fn.Kind != ir.FuncPPF {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpChanPut {
					producers[in.Chan] = append(producers[in.Chan], name)
				}
			}
		}
	}
	// Candidate internal channels, processed deterministically; accept as
	// internal while the intra-aggregate call graph stays acyclic.
	type edge struct{ from, to string }
	var chans []*types.Channel
	for _, ch := range prog.Types.ChanByID {
		chans = append(chans, ch)
	}
	adj := map[string][]string{}
	hasPath := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	for _, ch := range chans {
		classes[ch] = ChanExternal
		if ch.Consumer == "tx" || ch.Consumer == "" {
			continue
		}
		consAgg := plan.Of[ch.Consumer]
		if consAgg == nil || consAgg.Target != TargetME {
			continue
		}
		prods := producers[ch]
		if len(prods) == 0 {
			continue
		}
		allSame := true
		for _, p := range prods {
			if plan.Of[p] != consAgg {
				allSame = false
				break
			}
		}
		if !allSame {
			continue
		}
		// Same aggregate: internal if no cycle results.
		var edges []edge
		ok := true
		for _, p := range prods {
			if p == ch.Consumer || hasPath(ch.Consumer, p) {
				ok = false
				break
			}
			edges = append(edges, edge{from: p, to: ch.Consumer})
		}
		if !ok {
			classes[ch] = ChanLoopback
			continue
		}
		classes[ch] = ChanInternal
		for _, e := range edges {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	return classes
}

// BuildMerged constructs the per-aggregate merged programs: internal
// channel puts become direct calls, consumer PPF bodies are cloned as
// helpers, and everything is inlined into the entry functions.
func BuildMerged(prog *ir.Program, plan *Plan, classes map[*types.Channel]ChannelClass) ([]*Merged, error) {
	var out []*Merged
	for _, agg := range plan.Aggregates {
		m, err := buildOne(prog, plan, classes, agg)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func buildOne(prog *ir.Program, plan *Plan, classes map[*types.Channel]ChannelClass, agg *Aggregate) (*Merged, error) {
	np := ir.CloneProgram(prog)
	member := map[string]bool{}
	for _, f := range agg.PPFs {
		member[f] = true
	}
	// Convert internal channel puts into calls of helper clones.
	needHelper := map[string]bool{}
	for _, name := range agg.PPFs {
		fn := np.Funcs[name]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpChanPut && classes[in.Chan] == ChanInternal {
					needHelper[in.Chan.Consumer] = true
				}
			}
		}
	}
	for _, name := range agg.PPFs {
		fn := np.Funcs[name]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpChanPut && classes[in.Chan] == ChanInternal {
					consumer := in.Chan.Consumer
					in.Op = ir.OpCall
					in.Callee = consumer + "$h"
					in.Chan = nil
				}
			}
		}
	}
	// Helper clones carry the converted bodies (conversion above already
	// rewrote their internal puts too, since helpers are cloned from the
	// converted member functions).
	helperNames := make([]string, 0, len(needHelper))
	for name := range needHelper {
		helperNames = append(helperNames, name)
	}
	sort.Strings(helperNames)
	for _, name := range helperNames {
		orig := np.Funcs[name]
		if orig == nil {
			return nil, fmt.Errorf("aggregate: internal channel consumer %q missing", name)
		}
		h := orig.Clone()
		h.Name = name + "$h"
		h.Kind = ir.FuncHelper
		np.Funcs[h.Name] = h
		np.Order = append(np.Order, h.Name)
	}
	// Entries: member PPFs fed by rx, an external channel, or a loopback.
	var entries []*Entry
	if prog.Types.Entry != nil && member[prog.Types.Entry.Name] {
		entries = append(entries, &Entry{In: nil, Func: np.Funcs[prog.Types.Entry.Name]})
	}
	for _, ch := range prog.Types.ChanByID {
		if !member[ch.Consumer] {
			continue
		}
		if classes[ch] == ChanExternal || classes[ch] == ChanLoopback {
			entries = append(entries, &Entry{In: ch, Func: np.Funcs[ch.Consumer]})
		}
	}
	// Inline helper clones (and ordinary helpers) into the entries.
	opt.InlineAll(np)
	return &Merged{Agg: agg, Prog: np, Entries: entries}, nil
}
