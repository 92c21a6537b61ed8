package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"carousel/internal/obs"
)

// tracer keeps the benchmark's own spans — one around each call it makes
// into a layer — in memory until the run ends. Spans of one operation
// share the ID of its root span as their op ID.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's base time
	End    int64  `json:"end_ns"`
}

type span struct {
	t   *tracer
	rec spanRec
	id  uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start begins a span; a nil parent makes it the root of a new operation.
func (t *tracer) start(parent *span, name string) *span {
	id := t.ids.Add(1)
	rec := spanRec{Name: name, Op: id, ID: id, Start: int64(time.Since(t.base))}
	if parent != nil {
		rec.Op, rec.Parent = parent.rec.Op, parent.id
	}
	return &span{t: t, id: id, rec: rec}
}

// end is safe on a nil span, so untraced paths need no branches.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.t.base))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type interval struct{ lo, hi int64 }

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(lo, hi int64, kids []interval) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered := int64(0)
	cur := interval{lo, lo}
	for _, k := range kids {
		k.lo, k.hi = max(k.lo, lo), min(k.hi, hi)
		if k.hi <= k.lo {
			continue
		}
		if k.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = k
		} else if k.hi > cur.hi {
			cur.hi = k.hi
		}
	}
	covered += cur.hi - cur.lo
	return hi - lo - covered
}

// selfByName sums self time (ns) per span name over the benchmark's own
// spans, and counts the operations.
func (t *tracer) selfByName() (map[string]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]interval{}
	ops := 0
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		} else {
			ops++
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(selfTime(s.Start, s.End, kids[s.ID]))
	}
	return out, ops
}

// stageAcc accumulates self time per stage from the program's own span
// trees (obs.DefaultTracer().Spans of sampled operations).
type stageAcc struct {
	self  map[string]float64 // ns, keyed by span name
	spans int
	ops   int
}

func (a *stageAcc) add(spans []obs.SpanRecord) {
	if a.self == nil {
		a.self = map[string]float64{}
	}
	kids := map[uint64][]interval{}
	for _, s := range spans {
		lo := s.Start.UnixNano()
		kids[s.Parent] = append(kids[s.Parent], interval{lo, lo + int64(s.Duration)})
	}
	for _, s := range spans {
		lo := s.Start.UnixNano()
		a.self[s.Name] += float64(selfTime(lo, lo+int64(s.Duration), kids[s.ID]))
	}
	a.spans += len(spans) - 1 // the benchmark's sampling root is not the program's
	a.ops++
}

// spanCostNS measures what one program span costs — start, one attribute,
// end into a ring — on a private tracer, so the program's own tracing
// overhead can be priced per operation from outside.
func spanCostNS() float64 {
	tr := obs.NewTracer(8192)
	ctx, root := tr.Start(context.Background(), "root")
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, sp := tr.Start(ctx, "stage")
		sp.SetAttr("stripe", i)
		sp.End()
	}
	el := time.Since(t0)
	root.End()
	return float64(el) / n
}
