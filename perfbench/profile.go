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

// Attribution buckets beside the repository's packages: GC work,
// allocation inside the runtime, the benchmark's own code, and
// everything with no repository frame on its stack.
const (
	bucketGC     = "gc"
	bucketMalloc = "malloc"
	bucketBench  = "benchmark"
	bucketOther  = "other"
)

const internalPrefix = "github.com/wafernet/fred/internal/"

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.gcStart", "runtime.gcMarkTermination",
	"runtime.sweepone", "runtime.GC",
}

// bucketOf attributes one stack, leaf first, to a bucket: GC work
// anywhere on the stack goes to gc; time spent inside runtime.mallocgc
// goes to malloc; otherwise the stack belongs to the innermost frame
// of an internal/<pkg> package — the layer doing the work, runtime and
// standard-library helpers included — or, failing that, to the
// benchmark's own code or to other.
func bucketOf(funcs []string, countMalloc bool) string {
	for _, f := range funcs {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return bucketGC
			}
		}
	}
	if countMalloc {
		for _, f := range funcs {
			if !strings.HasPrefix(f, "runtime.") {
				break
			}
			if f == "runtime.mallocgc" {
				return bucketMalloc
			}
		}
	}
	bench := false
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			bench = true
		}
	}
	if bench {
		return bucketBench
	}
	return bucketOther
}

// cpuProfile is the part of a runtime/pprof CPU profile attribution
// needs: each sample's CPU nanoseconds and its stack of function
// names, leaf first.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	nanos int64
	funcs []string
}

// attribute sums the samples into buckets, in seconds, and returns
// the profile total beside them.
func (p *cpuProfile) attribute() (map[string]float64, float64) {
	buckets := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		buckets[bucketOf(s.funcs, true)] += sec
		total += sec
	}
	return buckets, total
}

// parseCPUProfile decodes the gzipped profile.proto message that
// runtime/pprof writes, keeping samples, locations, functions and the
// string table.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
		valueIdx  = -1
		typeIdx   []int64 // sample_type type string indices
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return nil, err
	}
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		cs := cpuSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(strs))
				}
				cs.funcs = append(cs.funcs, strs[idx])
			}
		}
		prof.samples = append(prof.samples, cs)
	}
	return prof, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited ones b the payload.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked reads a repeated varint field in either encoding.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// allocRecord is one allocation-profile bucket: a stack and an object
// size, with the cumulative sampled allocations made there. The
// runtime keeps one bucket per stack and size, so the pair is the key.
type allocRecord struct {
	key     allocKey
	objects int64
	bytes   int64
}

type allocKey struct {
	stack [32]uintptr
	size  int64
}

// allocSnapshot reads the runtime's allocation profile.
func allocSnapshot() []allocRecord {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var out []allocRecord
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 {
			key := allocKey{stack: r.Stack0, size: r.AllocBytes / r.AllocObjects}
			out = append(out, allocRecord{key: key, objects: r.AllocObjects, bytes: r.AllocBytes})
		}
	}
	return out
}

// diffAllocs returns the allocations made between two snapshots.
func diffAllocs(after, before []allocRecord) []allocRecord {
	prev := make(map[allocKey]allocRecord, len(before))
	for _, r := range before {
		prev[r.key] = r
	}
	var out []allocRecord
	for _, r := range after {
		p := prev[r.key]
		r.objects -= p.objects
		r.bytes -= p.bytes
		if r.bytes > 0 {
			out = append(out, r)
		}
	}
	return out
}

// attributeAllocs scales the sampled records to estimated bytes, as
// pprof does, and sums them into buckets. Every allocation stack ends
// in the allocator, so it goes to its innermost repository frame.
func attributeAllocs(recs []allocRecord) (map[string]float64, float64) {
	buckets := map[string]float64{}
	total := 0.0
	for _, r := range recs {
		est := scaleAllocs(r.objects, r.bytes, memProfileRate)
		var funcs []string
		pcs := r.key.stack[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		buckets[bucketOf(funcs, false)] += est
		total += est
	}
	return buckets, total
}

// scaleAllocs converts sampled bytes into an unbiased estimate of the
// bytes allocated, given the sampling rate.
func scaleAllocs(objects, bytes int64, rate int) float64 {
	if objects <= 0 || bytes <= 0 {
		return 0
	}
	if rate <= 1 {
		return float64(bytes)
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/float64(rate)))
}
