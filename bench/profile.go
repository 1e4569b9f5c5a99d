package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layer attribution "from outside": the benchmark profiles its own
// process and charges every CPU or allocation sample to the layer of
// its innermost frame that belongs to this repository. Time in the
// standard library or the runtime is thereby charged to the layer that
// called it (container/heap to sim, mallocgc to whoever allocated);
// samples with no repository frame at all — GC workers, the scheduler —
// are the runtime's own.

// layerOf maps a function (and, for the root package, its source file)
// to a layer, or "" when the frame is not this repository's.
func layerOf(fn, file string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."): // binary, test binary
		return "bench"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim", "mem", "wqe", "rnic", "core", "shard", "extent", "hopscotch", "telemetry":
			return pkg
		case "fabric", "host":
			return "rnic" // node assembly around the NIC model
		}
		return "service" // repair queue, failure injection: the service's helpers
	case strings.HasPrefix(fn, "repro."):
		if strings.HasSuffix(file, "/client.go") {
			return "client"
		}
		return "service"
	}
	return ""
}

// shares is a profile folded by layer. alloc, memclr overlap the layer
// buckets (they are cross-cuts of the same samples); runtimeOnly does
// not: layers + runtimeOnly == total.
type shares struct {
	total       float64
	layer       map[string]float64
	runtimeOnly float64
	alloc       float64 // samples with mallocgc anywhere on the stack
	memclr      float64 // samples whose leaf is a memclr routine
}

func (s *shares) add(v float64, frames []frame) {
	s.total += v
	if len(frames) > 0 && strings.HasPrefix(frames[0].fn, "runtime.memclr") {
		s.memclr += v
	}
	charged := false
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "runtime.mallocgc") {
			s.alloc += v
		}
		if !charged {
			if l := layerOf(f.fn, f.file); l != "" {
				s.layer[l] += v
				charged = true
			}
		}
	}
	if !charged {
		s.runtimeOnly += v
	}
}

type frame struct{ fn, file string }

// memSnapshot is the runtime's allocation profile at one moment:
// cumulative sampled bytes per (call stack, object size) bucket, at the
// default MemProfileRate — the benchmark does not change the sampling.
type memSnapshot map[memBucket]int64

type memBucket struct {
	stack [32]uintptr
	size  int64
}

func snapshotMemProfile() (memSnapshot, []runtime.MemProfileRecord) {
	runtime.GC() // the profile is as of the last completed collection
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if !ok {
			n = m
			continue
		}
		recs = recs[:m]
		snap := make(memSnapshot, m)
		for _, r := range recs {
			if r.AllocObjects > 0 {
				snap[memBucket{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocBytes
			}
		}
		return snap, recs
	}
}

// memSharesSince folds the allocation profile's growth since before by
// layer. Sampled bytes are scaled up by each bucket's sampling
// probability, as the pprof tool does, so small objects count in full.
func memSharesSince(before memSnapshot) *shares {
	after, recs := snapshotMemProfile()
	s := &shares{layer: make(map[string]float64)}
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		b := memBucket{r.Stack0, r.AllocBytes / r.AllocObjects}
		grown := after[b] - before[b]
		if grown <= 0 {
			continue
		}
		after[b] = before[b] // a bucket reported twice is charged once
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(b.size)/rate))
		}
		var frames []frame
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, frame{fn: f.Function, file: f.File})
			if !more {
				break
			}
		}
		s.add(float64(grown)*scale, frames)
	}
	return s
}

// cpuShares folds a runtime/pprof CPU profile (gzipped protobuf) by
// layer. The standard library has no public reader for the format, so
// this decodes the handful of fields it needs: samples (location ids,
// values), locations (function ids, innermost first) and functions
// (name, file) over the string table.
func cpuShares(gz []byte) (*shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type function struct{ name, file uint64 }
	var (
		strs      []string
		funcs     = map[uint64]function{}
		locs      = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    [][]uint64
		nSampleTy int
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nSampleTy++
		case 2: // sample
			var ids, vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids = appendVarints(ids, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples, values = append(samples, ids), append(values, vals)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fids
		case 5: // function
			var id uint64
			var f function
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
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
	s := &shares{layer: make(map[string]float64)}
	for i, ids := range samples {
		if len(values[i]) == 0 {
			continue
		}
		v := values[i][len(values[i])-1] // cpu nanoseconds is the last sample type
		var frames []frame
		for _, id := range ids {
			for _, fid := range locs[id] {
				f := funcs[fid]
				frames = append(frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		s.add(float64(v), frames)
	}
	if nSampleTy == 0 {
		return nil, fmt.Errorf("cpu profile: no sample types")
	}
	return s, nil
}

// eachField walks one protobuf message, calling fn with the field
// number and its varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value
// when it arrived unpacked (packed == nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
