package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the repository's modules the profiles are folded into, by
// package name under repro/internal.
var layers = []string{
	"sim", "tcpsim", "netem", "trace", "httpmsg", "htmlparse",
	"httpclient", "httpserver", "mux", "proxy", "cache", "faults",
	"obs", "causality", "stats", "telemetry", "core", "exp", "report",
	"webgen", "flatez", "lzw", "gifenc", "pngenc", "css",
}

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf charges a stack, leaf first, to the innermost frame of this
// repository. Runtime and standard-library frames above it, such as
// mallocgc and growslice, count toward the layer that called them. A
// repository frame outside the named layers (the experiment
// declarations, the benchmark itself) is "other", and a stack with no
// repository frame at all (GC workers, the scheduler) is "gc".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && isLayer[rest[:i]] {
				return rest[:i]
			}
			return "other"
		}
		if strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "gc"
}

// cpuSample is one CPU profile sample with its stack resolved to
// function names, leaf first, inlined frames expanded.
type cpuSample struct {
	ns     int64
	stack  []string
	labels map[string]string
}

// decodeCPUProfile reads the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what folding by
// layer needs: each sample's CPU nanoseconds, stack and labels.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // string-table indices: key, value
	}
	var (
		sampleTypes [][2]uint64 // type, unit
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → name index
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				case 3:
					var l [2]uint64
					err := eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							l[n-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
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
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nsIndex := -1
	for i, t := range sampleTypes {
		if str(t[1]) == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nsIndex >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a nanoseconds value")
		}
		cs := cpuSample{ns: int64(s.values[nsIndex])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			cs.labels = map[string]string{}
			for _, l := range s.labels {
				cs.labels[str(l[0])] = str(l[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For a varint or
// fixed-width field fn gets its value; for a length-delimited field, its
// bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, whether it arrived as
// one unpacked varint (data nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// allocSnapshot is the sampled allocation profile, keyed by stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeAllocSnapshot runs a GC, which publishes the allocations made
// since the last one, and copies the allocation profile.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := allocSnapshot{}
	for _, r := range recs {
		snap[r.Stack0] = r
	}
	return snap
}

// foldAllocs charges the bytes allocated between two snapshots to
// layers by the same rule as CPU time. The profile samples one
// allocation per runtime.MemProfileRate bytes on average; each stack's
// bytes are scaled back up by its mean object size, as pprof does.
func foldAllocs(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	names := map[uintptr][]string{}
	for key, r := range after {
		objs := r.AllocObjects - before[key].AllocObjects
		bytes := r.AllocBytes - before[key].AllocBytes
		if objs <= 0 || bytes <= 0 {
			continue
		}
		scale := 1.0
		if rate := float64(runtime.MemProfileRate); rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(bytes)/float64(objs)/rate))
		}
		var stack []string
		for _, pc := range r.Stack() {
			fns, ok := names[pc]
			if !ok {
				frames := runtime.CallersFrames([]uintptr{pc})
				for {
					f, more := frames.Next()
					fns = append(fns, f.Function)
					if !more {
						break
					}
				}
				names[pc] = fns
			}
			stack = append(stack, fns...)
		}
		out[layerOf(stack)] += float64(bytes) * scale
	}
	return out
}
