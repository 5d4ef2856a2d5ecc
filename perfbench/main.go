// Command perfbench is the repository's host-performance benchmark. It
// runs one workload — a fixed matrix of simulation cells — in timed
// passes, checks every cell, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a profiled run, as the last line of
// its output:
//
//	{"correct": true, "attempted": 648, "failed": 0, "metrics": {...}}
//
// run.sh builds it from the enclosing checkout and runs it; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// minPasses puts ten passes on either side of every reported median.
const minPasses = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts is printed with every result so noise can be traced to the
// host that produced it.
type hostFacts struct {
	Workload       string `json:"workload"`
	Nproc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Go             string `json:"go"`
	GitSHA         string `json:"git_sha"`
	Seed           int64  `json:"seed"`
	Passes         int    `json:"passes"`
	ProfiledPasses int    `json:"profiled_passes"`
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig5-8cpu, cmp256, hybrid-cap16 or fig5-observed")
	seed := fs.Int64("seed", 1, "seed of the cell order within each pass")
	seconds := fs.Float64("seconds", 10, "least host seconds of timed passes")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a profiled run")
	sha := fs.String("git-sha", "unknown", "commit being measured, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	r, err := measure(w, options{
		seed:      *seed,
		seconds:   *seconds,
		minPasses: minPasses,
		profiled:  *traced == 1,
		log:       stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	facts, _ := json.Marshal(hostFacts{
		Workload:       w.name,
		Nproc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Go:             runtime.Version(),
		GitSHA:         *sha,
		Seed:           *seed,
		Passes:         len(r.kind(false)),
		ProfiledPasses: len(r.kind(true)),
	})
	fmt.Fprintf(stdout, "host: %s\n", facts)
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if *traced == 1 {
		out.Metrics = perLayer(r)
	} else {
		out.Metrics = endToEnd(r)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEnd computes what a user of the simulator sees, over the
// untraced passes.
func endToEnd(r *run) map[string]metric {
	ps := r.kind(false)
	var wall time.Duration
	var mallocs, alloc uint64
	for _, p := range ps {
		wall += p.wall
		mallocs += p.mallocs
		alloc += p.alloc
	}
	memops := float64(r.sim.memops()) * float64(len(ps))
	return map[string]metric{
		"sim_kmemops_per_s":     {memops / wall.Seconds() / 1e3, "kmemops/s"},
		"pass_p50_ms":           {median(wallMs(ps)), "ms"},
		"setup_s":               {median(spanMs(ps, spanNewMachine, spanSetup)) / 1e3, "s"},
		"allocs_per_memop":      {float64(mallocs) / memops, "allocs/memop"},
		"alloc_bytes_per_memop": {float64(alloc) / memops, "B/memop"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"sim_mcycles":           {float64(r.sim.cycles) / 1e6, "Mcycles"},
	}
}

// perLayer computes the per-layer metrics of a profiled run: host time
// by layer and the sink spans from the profiled passes, GC work from
// the untraced ones, and the simulated work counts of one pass.
func perLayer(r *run) map[string]metric {
	plain, prof := r.kind(false), r.kind(true)
	m := map[string]metric{
		"trace.overhead_frac": {overheadFrac(wallMs(plain), wallMs(prof)), "frac"},
	}
	memops := float64(r.sim.memops()) * float64(len(prof))
	var covered int64
	for _, l := range layers {
		covered += r.layerNs[l]
		m[l+".ns_per_memop"] = metric{float64(r.layerNs[l]) / memops, "ns/memop"}
	}
	m["profile.coverage_frac"] = metric{ratio(uint64(covered), uint64(r.samplesNs)), "frac"}
	for s, name := range spanNames {
		m[name] = metric{median(spanMs(prof, s)), "ms"}
	}
	var gcs uint64
	var pause time.Duration
	for _, p := range plain {
		gcs += uint64(p.gcs)
		pause += p.gcPause
	}
	m["gc.cycles_per_pass"] = metric{float64(gcs) / float64(len(plain)), "count"}
	m["gc.pause_ms"] = metric{float64(pause) / 1e6 / float64(len(plain)), "ms"}

	s, c := &r.sim, &r.sim.machine
	counts := []struct {
		name, unit string
		v          float64
	}{
		{"cache.l1_hit_ratio", "ratio", ratio(c.L1Hits, c.L1Hits+c.L2Hits+c.Misses)},
		{"cache.misses", "count", float64(c.Misses)},
		{"cache.overflow_lines", "count", float64(c.Overflow)},
		{"tm.tx_begins", "count", float64(c.TxBegins)},
		{"tm.commit_ratio", "ratio", ratio(c.TxCommits, c.TxBegins)},
		{"tm.rollbacks", "count", float64(c.Rollbacks)},
		{"tm.violations", "count", float64(c.Violations)},
		{"tm.wasted_cycle_frac", "frac", ratio(c.WastedCycles, s.cpuCycles)},
		{"bus.bus_cycles", "cycles", float64(c.BusCycles)},
		{"bus.token_wait_cycles", "cycles", float64(c.TokenWaitCycle)},
		{"core.capacity_aborts", "count", float64(c.CapacityAborts)},
		{"core.fallbacks", "count", float64(c.Fallbacks)},
		{"core.stm_commits", "count", float64(c.StmCommits)},
		{"mem.resident_pages", "pages", float64(s.resident)},
		{"oracle.events", "count", float64(s.oracleEvents)},
		{"tracebin.events", "count", float64(s.traceEvents)},
		{"tracebin.bytes_per_event", "B", ratio(s.traceBytes, s.traceEvents)},
	}
	for _, n := range counts {
		m[n.name] = metric{n.v, n.unit}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a count the workload never makes).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
