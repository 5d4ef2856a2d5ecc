package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tmisa/internal/core"
	"tmisa/internal/stats"
	"tmisa/internal/tmprof"
	"tmisa/internal/trace"
	"tmisa/internal/tracebin"
)

// Span indices: host time spent inside one public call, summed over a
// pass's cells. The sink spans are nested inside core.run_ms.
const (
	spanNewMachine = iota
	spanSetup
	spanRun
	spanVerify
	spanOracleCheck
	spanTmprofSink
	spanTmprofProfile
	spanTracebinSink
	spanTracebinFlush
	numSpans
)

var spanNames = [numSpans]string{
	"core.new_machine_ms", "workloads.setup_ms", "core.run_ms", "workloads.verify_ms",
	"oracle.check_ms", "tmprof.sink_ms", "tmprof.profile_ms", "tracebin.sink_ms", "tracebin.flush_ms",
}

type spans [numSpans]time.Duration

// cellRun is what one execution of a cell produced.
type cellRun struct {
	spans  spans
	wall   time.Duration // the timed calls, end to end
	err    error
	report stats.Report
	fp     uint64 // Machine.Fingerprint after Run

	resident     int    // Memory.Footprint, in pages
	oracleEvents uint64 // events the oracle consumed
	events       uint64 // events fanned out to tmprof and tracebin
	traceBytes   uint64 // tracebin stream length
}

// runCell executes c the way workloads.ExecuteTraced does, timing each
// public call on its own. A panic or a failed check becomes r.err.
// timeSinks additionally times every observer event delivery.
func runCell(c cell, observed, timeSinks bool) (r cellRun) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg := c.cfg
	cfg.Oracle = observed
	start := time.Now()
	t := start
	lap := func(s int) {
		now := time.Now()
		r.spans[s] += now.Sub(t)
		t = now
	}

	m := core.NewMachine(cfg)
	lap(spanNewMachine)
	var obs *observers
	if observed {
		obs = attachObservers(m, c.label, timeSinks, &r.spans)
	}
	w := c.mk()
	w.Setup(m, cfg.CPUs)
	lap(spanSetup)
	bodies := make([]func(*core.Proc), cfg.CPUs)
	for i := range bodies {
		bodies[i] = func(p *core.Proc) { w.Run(p, cfg.CPUs) }
	}
	rep := m.Run(bodies...)
	lap(spanRun)
	verr := w.Verify(m)
	lap(spanVerify)
	oerr := m.CheckOracle()
	lap(spanOracleCheck)
	var ferr error
	if obs != nil {
		obs.col.Profile()
		lap(spanTmprofProfile)
		ferr = obs.tw.Flush()
		lap(spanTracebinFlush)
		r.events, r.traceBytes = obs.events, obs.out.n
	}
	r.wall = t.Sub(start)
	r.record(m, rep, verr, oerr, ferr)
	return r
}

// record is the untimed part of a cell run: it collects what the
// correctness gate compares. The CPU profile leaves its samples out
// (see untimedFunc).
func (r *cellRun) record(m *core.Machine, rep *stats.Report, verr, oerr, ferr error) {
	switch {
	case verr != nil:
		r.err = fmt.Errorf("verify: %w", verr)
	case oerr != nil:
		r.err = fmt.Errorf("oracle: %w", oerr)
	case ferr != nil:
		r.err = fmt.Errorf("tracebin: %w", ferr)
	}
	r.report = *rep
	r.fp = m.Fingerprint()
	r.resident = m.Mem().Footprint()
	r.oracleEvents = m.OracleEvents()
}

// observers is the sink set cmd/tmsim attaches for -profile and
// -trace-out, fanned out from the machine's one tracer.
type observers struct {
	col    *tmprof.Collector
	tw     *tracebin.Writer
	out    countingWriter
	events uint64
}

func attachObservers(m *core.Machine, label string, timeSinks bool, sp *spans) *observers {
	cfg := m.Config()
	o := &observers{col: tmprof.NewCollector(tmprof.Options{LineSize: cfg.Cache.LineSize, Config: cfg.Describe()})}
	o.tw = tracebin.NewWriter(&o.out, "perfbench")
	prof := o.col.StartRun(label)
	stream := o.tw.StartRun(label, cfg.Describe(), cfg.Cache.LineSize)
	if !timeSinks {
		m.SetTracer(func(e trace.Event) {
			o.events++
			prof(e)
			stream(e)
		})
		return o
	}
	m.SetTracer(func(e trace.Event) {
		o.events++
		t0 := time.Now()
		prof(e)
		t1 := time.Now()
		stream(e)
		sp[spanTmprofSink] += t1.Sub(t0)
		sp[spanTracebinSink] += time.Since(t1)
	})
	return o
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// pass is one run of every cell of a workload, in a seeded order.
type pass struct {
	wall     time.Duration // sum of the cells' timed calls
	spans    spans
	mallocs  uint64 // runtime.MemStats deltas over the cells' runs
	alloc    uint64
	gcs      uint32 // GC cycles the cells triggered themselves
	gcPause  time.Duration
	profiled bool
}

// sim totals one pass's simulated work; it is the same on every pass.
type sim struct {
	machine                               stats.Counters // summed with Counters.Add
	cycles                                uint64         // sum of the cells' TotalCycles
	cpuCycles                             uint64         // sum of every CPU's Cycles
	resident                              uint64
	oracleEvents, traceEvents, traceBytes uint64
}

func (s *sim) add(r *cellRun) {
	s.machine.Add(&r.report.Machine)
	s.cycles += r.report.TotalCycles
	for i := range r.report.PerCPU {
		s.cpuCycles += r.report.PerCPU[i].Cycles
	}
	s.resident += uint64(r.resident)
	s.oracleEvents += r.oracleEvents
	s.traceEvents += r.events
	s.traceBytes += r.traceBytes
}

func (s *sim) memops() uint64 { return s.machine.Loads + s.machine.Stores }

// options configures one benchmark run.
type options struct {
	seed      int64
	seconds   float64 // timed passes continue at least this long
	minPasses int     // ... and until each kind has this many passes
	profiled  bool    // interleave profiled passes with untraced ones
	log       io.Writer
}

// run is the outcome of one benchmark run.
type run struct {
	sim       sim // simulated work of one pass
	passes    []pass
	attempted int
	failed    int
	layerNs   map[string]int64 // CPU ns by layer over the profiled passes
	samplesNs int64            // CPU ns of all profiled samples
	orders    [][]int          // cell order of every pass, warm-up first
}

// measure runs an untimed warm-up pass, then timed passes until both
// opts.seconds have passed and every kind of pass (untraced, and
// profiled when opts.profiled) has opts.minPasses samples. Every cell of
// every timed pass must reproduce its warm-up cycles and fingerprint.
func measure(w workload, opts options) (*run, error) {
	cells := w.cells()
	nextOrder := cellOrder(opts.seed, len(cells))
	res := &run{layerNs: map[string]int64{}}
	refs := make([]outcome, len(cells))

	runPass := func(profiled, warm bool) (pass, error) {
		order := nextOrder()
		res.orders = append(res.orders, order)
		p := pass{profiled: profiled}
		var prof bytes.Buffer
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return p, fmt.Errorf("cpu profile: %w", err)
			}
		}
		for _, i := range order {
			// Every cell starts from a collected heap, outside its timed
			// calls: one cell's garbage is not charged to the next cell's
			// set-up, and peak RSS is the largest cell's, not the overlap
			// of two.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := runCell(cells[i], w.observed, profiled)
			runtime.ReadMemStats(&after)
			p.mallocs += after.Mallocs - before.Mallocs
			p.alloc += after.TotalAlloc - before.TotalAlloc
			p.gcs += after.NumGC - before.NumGC
			p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
			res.attempted++
			p.wall += r.wall
			for s := range r.spans {
				p.spans[s] += r.spans[s]
			}
			if warm {
				res.sim.add(&r)
				refs[i] = outcome{r.report.TotalCycles, r.fp, r.err == nil}
			}
			if err := check(r, refs[i]); err != nil {
				res.failed++
				fmt.Fprintf(opts.log, "perfbench: %s %s: %v\n", w.name, cells[i].label, err)
			}
		}
		if profiled {
			pprof.StopCPUProfile()
			samples, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return p, err
			}
			for _, s := range samples {
				if l := layerOf(s.frames); l != "" {
					res.layerNs[l] += s.cpuNs
					res.samplesNs += s.cpuNs
				}
			}
		}
		return p, nil
	}

	if _, err := runPass(false, true); err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		plain, profiled := len(res.kind(false)), len(res.kind(true))
		enough := plain >= opts.minPasses && (!opts.profiled || profiled >= opts.minPasses)
		if enough && time.Since(start).Seconds() >= opts.seconds {
			return res, nil
		}
		p, err := runPass(opts.profiled && profiled < plain, false)
		if err != nil {
			return nil, err
		}
		res.passes = append(res.passes, p)
	}
}

// cellOrder returns a generator of cell orders: each call is a fresh
// seeded shuffle of 0..n-1, so a seed fixes the order of every pass.
func cellOrder(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// outcome is what the correctness gate compares: a cell's simulated
// end state, and whether its warm-up run passed its checks.
type outcome struct {
	cycles, fp uint64
	ok         bool
}

// check compares a timed cell run against its warm-up outcome.
func check(r cellRun, want outcome) error {
	switch {
	case r.err != nil:
		return r.err
	case !want.ok:
		return fmt.Errorf("warm-up run failed, nothing to compare against")
	case r.report.TotalCycles != want.cycles:
		return fmt.Errorf("TotalCycles %d, warm-up ran %d", r.report.TotalCycles, want.cycles)
	case r.fp != want.fp:
		return fmt.Errorf("fingerprint %#x, warm-up ended at %#x", r.fp, want.fp)
	}
	return nil
}

// kind returns the untraced or the profiled passes.
func (r *run) kind(profiled bool) []pass {
	var out []pass
	for _, p := range r.passes {
		if p.profiled == profiled {
			out = append(out, p)
		}
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overheadFrac is the tracing overhead: the profiled pass median over
// the untraced pass median, minus 1.
func overheadFrac(untraced, profiled []float64) float64 {
	return median(profiled)/median(untraced) - 1
}

func wallMs(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.wall) / 1e6
	}
	return out
}

func spanMs(ps []pass, span ...int) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		for _, s := range span {
			out[i] += float64(p.spans[s]) / 1e6
		}
	}
	return out
}
