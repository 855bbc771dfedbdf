package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the pond/internal modules the traced run reports a CPU
// share for; json and gc are the harness's own buckets and every other
// sample lands in "other".
var cpuModules = []string{
	"fleet", "engine", "core", "telemetry", "predict", "ml", "mlops",
	"fleetpipeline", "pmu", "stats", "host", "pool", "emc", "capacity", "serve",
}

// gcRoots are runtime frames that mark a sample as garbage-collector
// work: the background mark workers, mutator assists, the sweeper and
// scavenger, and the stop-the-world phases.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

// bucket assigns one profile sample to a module. stack lists function
// names innermost first. Garbage-collector samples go to "gc" wherever
// they occur; otherwise the innermost frame that is encoding/json or a
// pond/internal/<module> package decides ("json" or the module's last
// path element); a stack with neither is "other".
func bucket(stack []string) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if f == root {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "encoding/json.") {
			return "json"
		}
		if m := internalModule(f); m != "" {
			return m
		}
	}
	return "other"
}

// internalModule returns the module of a pond/internal function name —
// the last element of its package path, so
// "pond/internal/mlops/fleetpipeline.(*Manager).Tick" is
// "fleetpipeline" — or "" for any other function.
func internalModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, "pond/internal/")
	if !ok {
		return ""
	}
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	if slash := strings.LastIndexByte(rest, '/'); slash >= 0 {
		rest = rest[slash+1:]
	}
	return rest
}

// profileSamples decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, into per-bucket sample counts. Only the fields the
// bucketing needs are read: samples (location ids and the sample
// count), locations (their line entries, innermost first for inlined
// calls), functions and the string table.
func profileSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strtab  []string
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendRepeated(s.locs, v, b)
				case 2:
					values = appendRepeated(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strtab) {
					stack = append(stack, strtab[idx])
				}
			}
		}
		out[bucket(stack)] += s.count
	}
	return out, nil
}

// forFields walks the top-level fields of a protobuf message, calling
// fn with the field number and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func forFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field that arrived either
// unpacked (one value, b nil) or packed (b holds the varints).
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
