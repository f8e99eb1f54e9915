package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes: gzip around
// a protobuf of which four messages matter here — Profile, Sample, Location
// (with its Lines) and Function. It answers one question: which package was
// on the CPU, by the leaf function of every sample.

// Layers a CPU sample can be attributed to, in report order. Packages under
// internal/ carry their own name; runtime is the Go runtime (allocator and
// collector included); everything else — the harness, math, sort — is other.
var cpuLayers = []string{
	"sim", "geom", "phy", "mac", "netstack", "aodv", "membership", "quorum",
	"mobility", "churn", "check", "runtime", "other",
}

const internalPrefix = "probquorum/internal/"

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			pkg := rest[:i]
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("pprof: varint overflow")
	return 0
}

// next returns the next field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped over.
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	for r.err == nil && len(r.b) > 0 {
		key := r.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			v = r.varint()
			return field, v, nil, r.err == nil
		case 2:
			n := r.varint()
			if r.err != nil {
				return
			}
			if n > uint64(len(r.b)) {
				r.err = io.ErrUnexpectedEOF
				return
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, true
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if n > len(r.b) {
				r.err = io.ErrUnexpectedEOF
				return
			}
			r.b = r.b[n:]
		default:
			r.err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// cpuShares decodes a gzipped pprof CPU profile and returns, per layer, the
// share of sampled CPU time whose leaf function belongs to it, plus the
// number of samples taken.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		leaf  uint64 // first location id: the innermost frame
		value int64  // last value: CPU nanoseconds for a CPU profile
		count int64  // first value: number of samples
	}
	var (
		samples  []sample
		locLeaf  = map[uint64]uint64{} // location id → function id of its innermost line
		funcName = map[uint64]uint64{} // function id → string-table index of its name
		strs     []string
	)
	top := protoReader{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					locs, m.err = repeatedVarint(locs, v, d)
				case 2:
					vals, m.err = repeatedVarint(vals, v, d)
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{
					leaf: locs[0], value: int64(vals[len(vals)-1]), count: int64(vals[0]),
				})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			m := protoReader{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // first Line is the innermost inlined frame
					haveLine = true
					l := protoReader{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							fn = lv
						}
					}
					if l.err != nil {
						return nil, 0, l.err
					}
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id, name uint64
			m := protoReader{b: data}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, 0, m.err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, 0, top.err
	}

	shares := make(map[string]float64, len(cpuLayers))
	var total, count int64
	for _, s := range samples {
		name := ""
		if idx := funcName[locLeaf[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		shares[layerOf(name)] += float64(s.value)
		total += s.value
		count += s.count
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, count, nil
}
