package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fakeTracer returns a tracer whose clock the test advances by hand.
func fakeTracer(sampleEvery int) (*tracer, *int64) {
	var now int64
	t := &tracer{sampleEvery: sampleEvery}
	t.now = func() int64 { return now }
	return t, &now
}

func TestSpanSelfTimeWithNestedSpans(t *testing.T) {
	tr, now := fakeTracer(1)
	tr.begin(spanRun, -1) // 0..100
	*now = 10
	tr.begin(spanIssue, 0) // 10..60
	*now = 20
	tr.begin(spanLookup, 0) // 20..50
	*now = 25
	tr.begin(spanSend, -1) // 25..35
	*now = 35
	tr.end()
	*now = 50
	tr.end()
	*now = 60
	tr.end()
	*now = 70
	tr.begin(spanDone, 0) // 70..80
	*now = 80
	tr.end()
	*now = 100
	tr.end()

	want := map[int][3]int64{ // count, total, self
		spanRun:    {1, 100, 40},
		spanIssue:  {1, 50, 20},
		spanLookup: {1, 30, 20},
		spanSend:   {1, 10, 10},
		spanDone:   {1, 10, 10},
	}
	var selfSum int64
	for name, w := range want {
		a := tr.agg[name]
		if a.count != w[0] || a.total != w[1] || a.self != w[2] {
			t.Errorf("%s: count/total/self = %d/%d/%d, want %v", spanNames[name], a.count, a.total, a.self, w)
		}
		selfSum += a.self
	}
	if selfSum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", selfSum)
	}
	// Every span of op 0 was sampled, and the send inherited the op.
	if len(tr.records) != 4 {
		t.Fatalf("%d records, want 4 (the root belongs to no op)", len(tr.records))
	}
	send := tr.records[2]
	if send.Name != "aodv.send" || send.Op != 0 || send.Parent != 1 || send.Start != 25 || send.End != 35 {
		t.Errorf("send record = %+v", send)
	}
}

func TestReentrantSpansAreNotCountedTwice(t *testing.T) {
	tr, now := fakeTracer(0)
	tr.begin(spanSend, -1) // 0..40, and inside it a completion callback sends again
	*now = 10
	tr.begin(spanSend, -1) // 10..30
	*now = 30
	tr.end()
	*now = 40
	tr.end()
	a := tr.agg[spanSend]
	if a.count != 2 || a.total != 40 || a.self != 40 {
		t.Errorf("count/total/self = %d/%d/%d, want 2/40/40", a.count, a.total, a.self)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	tr.begin(spanRun, -1)
	tr.end()
}

func TestTraceFileHoldsSampledSpans(t *testing.T) {
	tr, now := fakeTracer(2)
	for op := 0; op < 4; op++ {
		tr.begin(spanIssue, op)
		*now += 5
		tr.end()
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Aggregates []struct {
			Name  string
			Count int64
		}
		Spans []spanRecord
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Spans[0].Op != 0 || got.Spans[1].Op != 2 {
		t.Errorf("sampled spans = %+v, want ops 0 and 2", got.Spans)
	}
	if len(got.Aggregates) != numSpans || got.Aggregates[spanIssue].Count != 4 {
		t.Errorf("aggregates = %+v", got.Aggregates)
	}
}
