package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are offsets from the tracer's origin; Parent is 0
// for a root span; spans of one (workload, app, level) unit share Unit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Unit   int    `json:"unit"`
	Rep    int    `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced repetitions run the same code with no timing calls.
type tracer struct {
	origin time.Time
	rep    int
	spans  []span
	units  map[string]int
	names  []string // unit names, indexed by id-1
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), units: map[string]int{}}
}

// unit returns the id shared by every span of one (workload, app, level).
func (t *tracer) unit(key string) int {
	if t == nil {
		return 0
	}
	id, ok := t.units[key]
	if !ok {
		t.names = append(t.names, key)
		id = len(t.names)
		t.units[key] = id
	}
	return id
}

// begin opens a span and returns its id (0 when not tracing).
func (t *tracer) begin(parent int, name string, unit int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Rep: t.rep,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// allocs returns the bytes allocated on the heap so far when tracing, else
// 0, so untraced repetitions skip the read.
func (t *tracer) allocs() uint64 {
	if t == nil {
		return 0
	}
	return heapAllocs()
}

// call runs fn inside a span named name.
func (t *tracer) call(parent int, name string, unit int, fn func() error) error {
	id := t.begin(parent, name, unit)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time of the spans of
// repetition rep: each span's duration minus the part of its interval its
// children cover.
func selfTimes(spans []span, rep int) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Rep == rep && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Rep != rep {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans and unit names as JSON at path.
func (t *tracer) write(path string, env envInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Env   envInfo  `json:"env"`
		Units []string `json:"units"`
		Spans []span   `json:"spans"`
	}{env, t.names, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
