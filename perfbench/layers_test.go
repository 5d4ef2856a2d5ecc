package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"runtime frame under sim Yield", []string{
			"runtime.chansend", "runtime.chansend1",
			"tmisa/internal/sim.(*P).Yield",
			"tmisa/internal/core.(*Proc).step", "tmisa/internal/core.(*Proc).Load",
			"tmisa/internal/workloads.(*MP3D).Run", "runtime.goexit",
		}, "sim"},
		{"bare GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "runtime_gc"},
		{"core calling cache", []string{
			"tmisa/internal/cache.(*level).lookup", "tmisa/internal/cache.(*Hierarchy).Access",
			"tmisa/internal/core.(*Proc).access", "tmisa/internal/core.(*Proc).Load",
		}, "cache"},
		{"malloc charged to its caller", []string{
			"runtime.mallocgc", "runtime.newobject",
			"tmisa/internal/tm.(*Level).Track", "tmisa/internal/core.(*Proc).Store",
		}, "tm"},
		{"transactional runtime is workload code", []string{
			"tmisa/internal/btree.(*Tree).Insert", "tmisa/internal/txrt.Atomic",
			"tmisa/internal/core.(*Proc).Atomic",
		}, "workloads"},
		{"goroutine switch", []string{
			"runtime.gogo", "runtime.execute", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "runtime_sched"},
		{"benchmark fan-out", []string{
			"time.now", "main.attachObservers.func2",
			"tmisa/internal/core.(*Proc).emit", "tmisa/internal/core.(*Proc).Load",
		}, "perfbench"},
		{"collection forced before a cell", []string{
			"runtime.sweepone", "runtime.GC", "main.measure.func1", "main.measure",
		}, "runtime_gc"},
		{"untimed correctness check", []string{
			"tmisa/internal/cache.(*Hierarchy).Fingerprint", "tmisa/internal/core.(*Machine).Fingerprint",
			"main." + untimedFunc, "main.runCell",
		}, ""},
		{"untimed check in the test binary", []string{
			"tmisa/internal/core.(*Machine).Fingerprint", "tmisa/perfbench." + untimedFunc,
		}, ""},
		{"package outside the layers", []string{
			"tmisa/internal/stats.(*Counters).Add", "tmisa/internal/stats.(*Report).Aggregate",
			"tmisa/internal/core.(*Machine).finalize",
		}, "stats"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestOverheadFrac(t *testing.T) {
	untraced := []float64{300, 100, 102, 98, 101} // median 101; the outlier must not count
	profiled := []float64{111.1, 90, 500, 112, 110}
	if got, want := overheadFrac(untraced, profiled), 111.1/101-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("overheadFrac = %v, want %v", got, want)
	}
	if got := overheadFrac([]float64{4, 2}, []float64{3}); got != 0 {
		t.Errorf("overheadFrac with an even count = %v, want 0 (median of 2 and 4 is 3)", got)
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

// TestParseCPUProfile decodes a real runtime/pprof profile and finds
// the benchmark's own frames in it (named tmisa/perfbench.X here, in
// the test binary).
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		spin(1 << 16)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinNs, totalNs int64
	for _, s := range samples {
		totalNs += s.cpuNs
		if len(s.frames) > 0 && s.frames[0] == "tmisa/perfbench.spin" {
			spinNs += s.cpuNs
			if l := layerOf(s.frames); l != "perfbench" {
				t.Errorf("a sample in spin charged to %q, want perfbench", l)
			}
		}
	}
	if spinNs < totalNs/2 {
		t.Errorf("spin holds %v of %v profiled CPU; the decoder lost frames", time.Duration(spinNs), time.Duration(totalNs))
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("parseCPUProfile accepted non-gzip input")
	}
}
