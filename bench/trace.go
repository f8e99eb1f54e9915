//pqlint:allow nowallclock(spans time the host-side cost of harness calls; no simulation state depends on them)

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"probquorum/internal/aodv"
	"probquorum/internal/netstack"
)

// Span names. Each is a call the harness itself makes into a layer, or a
// callback a layer makes into the harness: the only boundaries visible from
// outside the simulator.
const (
	spanRun       = iota // sim.run: one engine.Run slice (root)
	spanIssue            // bench.issue: the arrival event's closure
	spanAdvertise        // quorum.advertise: the synchronous Advertise call
	spanLookup           // quorum.lookup: the synchronous Lookup call
	spanSend             // aodv.send: Router.Send/SendScoped as called by the quorum layer
	spanDone             // quorum.done: the completion callback
	numSpans
)

var spanNames = [numSpans]string{
	"sim.run", "bench.issue", "quorum.advertise", "quorum.lookup", "aodv.send", "quorum.done",
}

// spanRecord is one written-out span. Times are host nanoseconds since the
// tracer started; Parent indexes the record list (-1 for a root).
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	count int64
	total int64 // inclusive ns; a span nested in one of its own name is not added again
	self  int64 // ns not covered by child spans
	depth int   // open spans of this name, for the re-entrancy rule
}

type openSpan struct {
	name     int
	op       int
	start    int64
	children int64 // inclusive ns of direct children
	record   int   // index in records, or -1 when the op is not sampled
}

// tracer records spans in memory. All methods are no-ops on a nil tracer, so
// the untraced run executes the same harness code with tracing off.
type tracer struct {
	base    time.Time
	now     func() int64 // ns since base; replaced by tests
	stack   []openSpan
	agg     [numSpans]spanAgg
	records []spanRecord
	// sampleEvery keeps full records only for the spans of every
	// sampleEvery-th op; all other spans live on in the aggregates alone.
	sampleEvery int
}

func newTracer(sampleEvery int) *tracer {
	t := &tracer{base: time.Now(), sampleEvery: sampleEvery}
	t.now = func() int64 { return int64(time.Since(t.base)) }
	return t
}

// begin opens a span of the given name on behalf of op; with op -1 the span
// belongs to the op of the span it is nested in, if any.
func (t *tracer) begin(name, op int) {
	if t == nil {
		return
	}
	if n := len(t.stack); op < 0 && n > 0 {
		op = t.stack[n-1].op
	}
	start := t.now()
	rec := -1
	if op >= 0 && t.sampleEvery > 0 && op%t.sampleEvery == 0 {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].record
		}
		rec = len(t.records)
		t.records = append(t.records, spanRecord{Name: spanNames[name], Start: start, Parent: parent, Op: op})
	}
	t.agg[name].depth++
	t.stack = append(t.stack, openSpan{name: name, op: op, start: start, record: rec})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - s.start
	a := &t.agg[s.name]
	a.count++
	a.self += dur - s.children
	a.depth--
	if a.depth == 0 {
		a.total += dur
	}
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if s.record >= 0 {
		t.records[s.record].End = now
	}
}

// write stores the sampled spans and the per-name aggregates as JSON.
func (t *tracer) write(path string) error {
	type aggOut struct {
		Name    string `json:"name"`
		Count   int64  `json:"count"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	out := struct {
		SampleEvery int          `json:"sample_every_ops"`
		Aggregates  []aggOut     `json:"aggregates"`
		Spans       []spanRecord `json:"spans"`
	}{SampleEvery: t.sampleEvery, Spans: t.records}
	for i, a := range t.agg {
		out.Aggregates = append(out.Aggregates, aggOut{spanNames[i], a.count, a.total, a.self})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRouter decorates the aodv.Router handed to quorum.New so that every
// send the quorum layer makes is a span. Forwarding inside the routing layer
// runs in engine events the harness cannot wrap; the CPU profile covers it.
type tracedRouter struct {
	aodv.Router
	prefetch aodv.RoutePrefetcher // nil when the router has none
	t        *tracer
}

func traceRouter(t *tracer) func(aodv.Router) aodv.Router {
	return func(r aodv.Router) aodv.Router {
		tr := &tracedRouter{Router: r, t: t}
		tr.prefetch, _ = r.(aodv.RoutePrefetcher)
		return tr
	}
}

func (r *tracedRouter) Send(src, dst int, inner *netstack.Packet, done func(ok bool)) {
	r.t.begin(spanSend, -1)
	r.Router.Send(src, dst, inner, done)
	r.t.end()
}

func (r *tracedRouter) SendScoped(src, dst int, inner *netstack.Packet, maxTTL int, done func(ok bool)) {
	r.t.begin(spanSend, -1)
	r.Router.SendScoped(src, dst, inner, maxTTL, done)
	r.t.end()
}

// PrefetchRoutes keeps the decorated router a RoutePrefetcher, so the traced
// run prefetches route trees exactly as the untraced one does.
func (r *tracedRouter) PrefetchRoutes(origin int, dsts []int) {
	if r.prefetch != nil {
		r.prefetch.PrefetchRoutes(origin, dsts)
	}
}
