package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CPU-profile attribution: a runtime/pprof CPU profile is a gzipped
// profile.proto message. The few fields needed to bucket samples by the
// package of their leaf frame are decoded here with the standard library
// alone.

// profile is the decoded part of a CPU profile.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]string   // function id -> name
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					return appendUints(&vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, si := range funcName {
		if si < uint64(len(strs)) {
			p.functions[id] = strs[si]
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited one.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuBucket maps a function name to the layer its package belongs to.
func cpuBucket(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch pkg {
	case "blastlan/internal/wire":
		return "wire"
	case "blastlan/internal/udplan":
		return "udplan"
	case "syscall", "internal/runtime/syscall":
		return "syscall"
	case "blastlan/internal/core":
		return "core"
	case "blastlan/internal/session":
		return "session"
	case "blastlan/internal/store":
		return "store"
	case "blastlan/internal/sim", "blastlan/internal/simrun":
		return "sim"
	case "runtime":
		return "runtime"
	}
	return "other"
}

// isGCFrame reports whether fn is garbage-collector work: background mark
// workers, mark assists and sweeping.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || strings.HasPrefix(fn, "runtime.markroot")
}

// cpuShares buckets the profile's samples by the package of their leaf
// frame ("cpu_share.<layer>"), counting a helper inlined into a function
// as that function, and reports the share of samples with
// garbage-collector work anywhere on the stack ("runtime.gc_cpu_share").
// top lists the hottest leaf functions.
func (p *profile) cpuShares() (shares map[string]float64, top []funcShare, samples int64) {
	shares = map[string]float64{}
	for _, l := range []string{"wire", "udplan", "syscall", "core", "session", "store", "sim", "runtime", "other"} {
		shares["cpu_share."+l] = 0
	}
	shares["runtime.gc_cpu_share"] = 0
	leaves := map[string]int64{}
	var gc int64
	for _, s := range p.samples {
		samples += s.count
		leaf := "unknown"
		inGC := false
		for i, loc := range s.locs {
			fns := p.locations[loc]
			if i == 0 && len(fns) > 0 {
				// The location's last line is the function whose code
				// ran; earlier lines are calls inlined into it.
				leaf = p.functions[fns[len(fns)-1]]
			}
			for _, fid := range fns {
				inGC = inGC || isGCFrame(p.functions[fid])
			}
		}
		leaves[leaf] += s.count
		shares["cpu_share."+cpuBucket(leaf)] += float64(s.count)
		if inGC {
			gc += s.count
		}
	}
	if samples == 0 {
		return shares, nil, 0
	}
	for k := range shares {
		shares[k] /= float64(samples)
	}
	shares["runtime.gc_cpu_share"] = float64(gc) / float64(samples)
	for fn, n := range leaves {
		top = append(top, funcShare{fn, float64(n) / float64(samples)})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].share > top[j].share })
	return shares, top[:min(len(top), 12)], samples
}

type funcShare struct {
	name  string
	share float64
}
