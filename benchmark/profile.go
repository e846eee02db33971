package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file reads the CPU profile that runtime/pprof writes (a gzipped
// profile.proto message) with a minimal protobuf decoder, and buckets each
// sample by the package of its flat (leaf) frame into the benchmark's
// layers.

// pkgLayers are the simulator packages (under repro/internal/) that get a
// bucket of their own; samples in other packages land in "other".
var pkgLayers = []string{"sim", "medium", "spectrum", "phy", "rate", "mac", "net80211", "frame", "wep", "traffic"}

// layers are the buckets a CPU sample can land in, in report order: the
// package layers, the Go runtime split into garbage collection and the
// rest, and everything else.
var layers = append(append([]string{}, pkgLayers...), "runtime", "gc", "other")

// gcRoots are runtime functions that only the garbage collector runs; a
// sample with one of them on its stack and its leaf in the runtime is GC
// work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
	"runtime.gcDrain":        true,
	"runtime.sweepone":       true,
}

// profSample is one decoded sample: its stack of function names, leaf
// first, and its sample count.
type profSample struct {
	stack []string
	count int64
}

// layerOf maps a sample to a layer. A leaf in the Go runtime is runtime
// work, or GC work when a collector function is on the stack. Otherwise
// the sample belongs to the innermost simulator package on the stack, so
// a standard-library leaf such as math.Exp counts toward the layer that
// called it.
func layerOf(s profSample) string {
	if len(s.stack) == 0 {
		return "other"
	}
	if packageOf(s.stack[0]) == "runtime" {
		for _, fn := range s.stack {
			if gcRoots[fn] {
				return "gc"
			}
		}
		return "runtime"
	}
	for _, fn := range s.stack {
		pkg := packageOf(fn)
		if !strings.HasPrefix(pkg, "repro/") {
			continue
		}
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if slices.Contains(pkgLayers, name) {
			return name
		}
		return "other"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "repro/internal/medium.(*Medium).transmit" or "runtime.mallocgc": the
// text up to the first dot after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// selfShares returns each layer's share of all samples in percent. Every
// layer is present; the shares sum to 100 unless there are no samples.
func selfShares(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	var total int64
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for l := range out {
			out[l] = 100 * out[l] / float64(total)
		}
	}
	return out
}

// parseProfile decodes a gzipped profile.proto CPU profile into samples.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			var values []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendRepeated(s.locs, w, v, b)
				case 2:
					values = appendRepeated(values, w, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: 1 function_id
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				idx := funcs[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendRepeated appends a repeated integer field that may arrive packed
// (one length-delimited run of varints) or as a single varint.
func appendRepeated(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
