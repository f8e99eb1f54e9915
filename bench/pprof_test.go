package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"probquorum/internal/geom"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"probquorum/internal/phy.(*sinrRadio).Transmit":     "phy",
		"probquorum/internal/sim.(*Engine).Run":             "sim",
		"probquorum/internal/aodv.(*routeCache).build":      "aodv",
		"probquorum/internal/geom.Dist2":                    "geom",
		"probquorum/internal/quorum.(*System).Lookup.func1": "quorum",
		"probquorum/internal/faults.(*Injector).apply":      "other", // not a benchmarked layer
		"probquorum/internal/experiment.Run":                "other",
		"runtime.mallocgc":                                  "runtime",
		"runtime/internal/atomic.Load":                      "runtime",
		"math.Pow":                                          "other",
		"main.timed":                                        "other",
		"":                                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer, enough to spell out a profile by hand.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(field int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytes(field, inner.Bytes())
}

func TestCPUSharesOnAHandWrittenProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"probquorum/internal/phy.(*sinrRadio).Transmit", "runtime.mallocgc", "math.Pow",
		"probquorum/internal/sim.(*Engine).Run"}
	var prof pb
	function := func(id, name uint64) {
		var f pb
		f.uint(1, id)
		f.uint(2, name)
		prof.bytes(5, f.Bytes())
	}
	location := func(id uint64, fns ...uint64) { // innermost inlined frame first
		var l pb
		l.uint(1, id)
		l.uint(3, 0x1000+id) // address: a field the reader must skip
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.Bytes())
		}
		prof.bytes(4, l.Bytes())
	}
	sample := func(count, nanos uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, nanos)
		prof.bytes(2, s.Bytes())
	}
	function(1, 5) // phy
	function(2, 6) // runtime
	function(3, 7) // math
	function(4, 8) // sim
	location(1, 1)
	location(2, 2)
	location(3, 3, 1) // math.Pow inlined into phy: the leaf is math
	location(4, 4)
	sample(5, 50, 1, 4) // leaf phy, called from sim
	sample(3, 30, 2, 1, 4)
	sample(1, 10, 3, 4)
	sample(1, 10, 4)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.uint(9, 12345)  // time_nanos
	prof.uint(12, 10000) // period

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(zipped.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != 10 {
		t.Errorf("samples = %d, want 10", samples)
	}
	for layer, want := range map[string]float64{"phy": 0.5, "runtime": 0.3, "other": 0.1, "sim": 0.1, "aodv": 0} {
		if math.Abs(shares[layer]-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
	if _, _, err := cpuShares([]byte("not gzip")); err == nil {
		t.Error("a malformed profile must be an error")
	}
}

var sink float64

func TestCPUSharesOnARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(i * 7 % 13)}
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := range pts {
			sink += geom.Dist2(pts[i], pts[(i*31+7)%len(pts)])
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profiler took no sample in 300 ms on this host")
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v over %d samples: %v", sum, samples, shares)
	}
	// The loop is this test plus geom.Dist2 inlined into it; nothing of the
	// simulator proper ran.
	if busy := shares["geom"] + shares["other"] + shares["runtime"]; busy < 0.99 {
		t.Errorf("geom+other+runtime = %v, want all of it: %v", busy, shares)
	}
}
