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

// layers are the layers host CPU time is charged to, in report order:
// the simulator's packages, then runtime_sched (goroutine switches),
// runtime_gc (every other sample with no simulator frame), and
// perfbench (the benchmark's own observer fan-out and timers).
var layers = []string{
	"sim", "core", "cache", "mem", "tm", "bus",
	"oracle", "tracebin", "tmprof", "workloads",
	"runtime_sched", "runtime_gc", "perfbench",
}

// layerAlias folds packages into the layer that owns them: the
// transactional runtime and the B-tree are workload code.
var layerAlias = map[string]string{"txrt": "workloads", "btree": "workloads"}

const modulePrefix = "tmisa/internal/"

// untimedFunc is the benchmark function that gathers the correctness
// gate's state between timed calls; samples under it are left out.
const untimedFunc = "(*cellRun).record"

// benchFunc reports whether frame f is this package's code, and its
// name within the package. The benchmark binary names its functions
// main.X; its test binary names them tmisa/perfbench.X.
func benchFunc(f string) (string, bool) {
	for _, p := range []string{"main.", "tmisa/perfbench."} {
		if strings.HasPrefix(f, p) {
			return f[len(p):], true
		}
	}
	return "", false
}

// layerOf charges a stack (function names, innermost first) to the
// innermost simulator package on it, so runtime work (a channel send, a
// malloc) counts against the layer that asked for it. A benchmark frame
// met first charges perfbench, except under runtime.GC, the collection
// the benchmark forces before each cell. A stack with neither is a
// goroutine switch on the scheduler's own stack (runtime.mcall), which
// pprof cannot tie to the goroutine that parked — in this simulator that
// is almost always sim handing the machine to the next CPU — or else GC
// and other runtime work. Packages outside layers (stats, trace) come
// back under their own name and count against profile coverage. The
// empty string means the sample is left out.
func layerOf(frames []string) string {
	for _, f := range frames {
		if name, ok := benchFunc(f); ok && name == untimedFunc {
			return ""
		}
	}
	for _, f := range frames {
		if f == "runtime.GC" {
			return "runtime_gc" // the collection forced before each cell
		}
		if _, ok := benchFunc(f); ok {
			return "perfbench"
		}
		if !strings.HasPrefix(f, modulePrefix) {
			continue
		}
		pkg := f[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerAlias[pkg]; ok {
			return l
		}
		return pkg
	}
	if len(frames) > 0 && frames[len(frames)-1] == "runtime.mcall" {
		return "runtime_sched"
	}
	return "runtime_gc"
}

// stackSample is one CPU profile sample: its stack as function names,
// innermost first, and the CPU time it stands for.
type stackSample struct {
	frames []string
	cpuNs  int64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what layer
// attribution needs. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample value's type
		samples    []sample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendInts(s.locs, v, b)
				case 2:
					s.values, err = appendInts(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
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
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
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
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 && len(samples) > 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		ss := stackSample{cpuNs: int64(s.values[cpu])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ss.frames = append(ss.frames, str(funcNames[f]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// fields calls fn for each field of the protobuf message msg: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped (profile.proto has none that matter here).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("cpu profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("cpu profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's value: v when it came
// unpacked, the varints in b when packed.
func appendInts(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
