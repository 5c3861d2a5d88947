package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span tracing from outside the program: the benchmark wraps each call it
// makes into a layer's public functions in a span. Spans stay in memory
// and are written out when the run ends. A layer's self time is its span
// minus the part of that interval its child spans cover; the op's root
// span keeps the remainder under the name "other", so the layers plus
// "other" sum exactly to op wall time.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// otherLayer names the self time of an op's root span: wall time no layer
// span covers.
const otherLayer = "other"

// tracer records spans and per-layer work counts. A nil *tracer records
// nothing, so untraced code paths call it unconditionally. Safe for
// concurrent use.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	ops    []string // op id → op kind
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// op starts a new op of the given kind and returns its id and root span.
func (t *tracer) op(kind string) (op, root int) {
	if t == nil {
		return -1, -1
	}
	t.mu.Lock()
	op = len(t.ops)
	t.ops = append(t.ops, kind)
	t.mu.Unlock()
	return op, t.begin(op, -1, kind)
}

// begin opens a span named after a layer under parent and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds n units of work to a named per-layer counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// snapshot returns copies of the spans, op kinds and counts.
func (t *tracer) snapshot() ([]span, []string, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), append([]string(nil), t.ops...), counts
}

// write emits the spans as one JSON document.
func (t *tracer) write(w io.Writer) error {
	spans, ops, counts := t.snapshot()
	return json.NewEncoder(w).Encode(struct {
		Ops    []string         `json:"ops"`
		Counts map[string]int64 `json:"counts"`
		Spans  []span           `json:"spans"`
	}{ops, counts, spans})
}

// breakdown is the self-time accounting of a set of ops.
type breakdown struct {
	// Self is nanoseconds of self time per layer; root spans count as
	// otherLayer.
	Self map[string]int64
	// Calls is the number of spans per layer.
	Calls map[string]int
	// Wall is nanoseconds of op wall time per op kind.
	Wall map[string]int64
	// Ops is the number of ops per op kind.
	Ops map[string]int
}

// totalWall is the summed wall time of every op.
func (b breakdown) totalWall() int64 {
	var t int64
	for _, w := range b.Wall {
		t += w
	}
	return t
}

// analyze computes self times. It fails if a span is still open, if a child
// lies outside its parent, or if siblings overlap — any of which would make
// the layers plus "other" differ from op wall time.
func analyze(spans []span, ops []string) (breakdown, error) {
	b := breakdown{Self: map[string]int64{}, Calls: map[string]int{},
		Wall: map[string]int64{}, Ops: map[string]int{}}
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < s.Start {
			return b, fmt.Errorf("span %d (%s) was not closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	opSelf := map[int]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, last int64 = 0, s.Start
		for _, k := range kids {
			if k.Start < s.Start || k.End > s.End {
				return b, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", k.ID, k.Name, s.ID, s.Name)
			}
			if k.Start < last {
				return b, fmt.Errorf("span %d (%s) overlaps a sibling under %d (%s)", k.ID, k.Name, s.ID, s.Name)
			}
			covered += k.End - k.Start
			last = k.End
		}
		self := s.End - s.Start - covered
		name := s.Name
		if s.Parent < 0 {
			name = otherLayer
			b.Wall[ops[s.Op]] += s.End - s.Start
			b.Ops[ops[s.Op]]++
		}
		b.Self[name] += self
		b.Calls[name]++
		opSelf[s.Op] += self
	}
	for _, s := range spans {
		if s.Parent < 0 && opSelf[s.Op] != s.End-s.Start {
			return b, fmt.Errorf("op %d: layer self times sum to %d ns, wall is %d ns", s.Op, opSelf[s.Op], s.End-s.Start)
		}
	}
	return b, nil
}
