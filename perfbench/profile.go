package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal decoder for the gzipped profile.proto that
// runtime/pprof writes, and the rule that charges each CPU sample to a
// layer. Only the fields the rule needs are read: each sample's count
// and stack, each location's (possibly inlined) functions, and the
// function names.

// stackSample is one decoded sample: its count and its frames,
// innermost first (inlined callees before their callers).
type stackSample struct {
	count int64
	stack []frame
}

// frame is one function in a sample's stack.
type frame struct {
	fn, file string
}

// decodeProfile parses a gzipped pprof profile.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		fnFile  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = forEachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendUints(s.locs, wire, v, b)
				case 2: // value: [count, nanoseconds]
					if vals := appendUints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var (
				id  uint64
				fns []uint64
			)
			err := forEachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return forEachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := forEachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			fnName[id], fnFile[id] = name, file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ss.stack = append(ss.stack, frame{fn: str(fnName[fn]), file: str(fnFile[fn])})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := readVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// forEachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func forEachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
		switch wire {
		case 0:
			v, n = readVarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the per-layer attribution buckets, named after the
// repository's internal packages (raid and parity fold into array,
// telemetry/journal into telemetry), plus the Go collector's workers
// (gc) and everything else (other). The response-time histograms live
// in internal/telemetry/hist.go but are the metrics package's always-on
// accounting, so their frames count as metrics: telemetry is then only
// the optional journal and probe path.
var layers = []string{"sim", "disk", "array", "core", "baseline", "logspace", "intervals",
	"cache", "metrics", "telemetry", "invariant", "gc", "other"}

const internalPrefix = "github.com/rolo-storage/rolo/internal/"

// layerOf charges a stack to the package of its innermost
// github.com/rolo-storage/rolo/internal/<pkg> frame, so runtime helpers
// (memmove, mallocgc, GC assists, map operations) count against the
// module code that called them. A stack with no such frame is gc when a
// collector worker runs it, and other otherwise.
func layerOf(stack []frame) string {
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f.fn, internalPrefix)
		if !ok {
			continue
		}
		if strings.HasSuffix(f.file, "/internal/telemetry/hist.go") {
			return "metrics"
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "raid", "parity":
			return "array"
		case "sim", "disk", "array", "core", "baseline", "logspace", "intervals",
			"cache", "metrics", "telemetry", "invariant":
			return pkg
		}
		return "other"
	}
	for _, f := range stack {
		if f.fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// layerCounts adds each sample's count to its layer.
func layerCounts(counts map[string]int64, samples []stackSample) {
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
	}
}

// layerShares turns per-layer sample counts into shares of the total.
func layerShares(counts map[string]int64) (map[string]float64, int64) {
	var total int64
	for _, c := range counts {
		total += c
	}
	shares := map[string]float64{}
	for l, c := range counts {
		shares[l] = float64(c) / float64(total)
	}
	return shares, total
}
