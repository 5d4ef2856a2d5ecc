package runner

import (
	"fmt"
	"io"

	"tmisa/internal/cache"
	"tmisa/internal/core"
	"tmisa/internal/sim"
	"tmisa/internal/stats"
	"tmisa/internal/tm"
	"tmisa/internal/tmprof"
	"tmisa/internal/workloads"
)

// Context carries the experiment-wide knobs from the command line.
type Context struct {
	// CPUs is the CPU count for figure5-style experiments.
	CPUs int
	// Oracle attaches the serializability and strong-atomicity checker to
	// every workload run (condsync and the opensem litmus excepted — both
	// are deliberately non-serializable).
	Oracle bool
	// Profile attaches a tmprof collector to every cell's machines; each
	// cell returns its profile in Metrics.Prof for merging in matrix
	// order. The tracer only observes the event stream, so profiled runs
	// report bit-identical counters.
	Profile bool
	// Trace additionally captures every cell's complete event stream as
	// binary run sections (Profile.TraceBin), concatenated in matrix
	// order by MergeProfiles — the -trace-out path. Implies attaching a
	// collector even when Profile is off.
	Trace bool
	// Sched selects the simulation scheduler for every cell (the zero
	// value is the event loop). The legacy goroutine scheduler is retained
	// for the sched-equiv differential suite, which runs the whole
	// registry under both and requires byte-identical output.
	Sched sim.Sched
}

// base is the paper's default platform plus the oracle flag.
func (ctx Context) base() core.Config {
	cfg := core.DefaultConfig()
	cfg.Oracle = ctx.Oracle
	cfg.Sched = ctx.Sched
	return cfg
}

// collector returns a fresh per-cell profiler, or nil when profiling is
// off. Each cell owns its collector — cells run on parallel workers, and
// per-cell collection with matrix-order merging is what keeps the merged
// profile identical at any -parallel.
func (ctx Context) collector(cfg core.Config) *tmprof.Collector {
	if !ctx.Profile && !ctx.Trace {
		return nil
	}
	size := cfg.Cache.LineSize
	if cfg.WordTracking {
		size = 0 // word granularity: don't fold addresses
	}
	return tmprof.NewCollector(tmprof.Options{
		LineSize:     size,
		Config:       cfg.Describe(),
		CaptureTrace: ctx.Trace,
	})
}

// attach starts label's run on the cell's collector, if it has one.
func attach(col *tmprof.Collector, m *core.Machine, label string) {
	if col != nil {
		m.SetTracer(col.StartRun(label))
	}
}

// execute runs one workload cell through workloads.ExecuteTraced with
// the cell's profiler attached under label. It returns the run's
// counters, final Fingerprint and profile, plus the report for cells
// that derive Values from it.
func (ctx Context) execute(w workloads.Workload, cfg core.Config, cpus int, label string) (Metrics, *stats.Report) {
	col := ctx.collector(cfg)
	var mach *core.Machine
	rep := workloads.ExecuteTraced(w, cfg, cpus, func(m *core.Machine) {
		mach = m
		attach(col, m, label)
	})
	met := FromReport(rep)
	met.Fingerprint = fingerprint(mach)
	met.Prof = col.Profile()
	return met, rep
}

// Experiment is one entry of the evaluation: a matrix of independent
// cells plus a renderer that formats the collected metrics into the
// published tables. Render reads results positionally — results[i] is
// cells[i]'s metrics, whatever order the cells finished in.
type Experiment struct {
	Name   string
	Cells  func(ctx Context) []Cell
	Render func(ctx Context, res []Metrics, w io.Writer)
}

// Order lists the experiments in the order "-exp all" runs them.
var Order = []string{
	"overheads", "figure5", "io", "condsync", "schemes",
	"engines", "opensem", "depth", "granularity", "scaling", "hybrid",
	"scale",
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

var registry = map[string]Experiment{
	"overheads":   {Name: "overheads", Cells: overheadsCells, Render: overheadsRender},
	"figure5":     {Name: "figure5", Cells: figure5Cells, Render: figure5Render},
	"io":          {Name: "io", Cells: ioCells, Render: ioRender},
	"condsync":    {Name: "condsync", Cells: condsyncCells, Render: condsyncRender},
	"schemes":     {Name: "schemes", Cells: schemesCells, Render: schemesRender},
	"engines":     {Name: "engines", Cells: enginesCells, Render: enginesRender},
	"opensem":     {Name: "opensem", Cells: opensemCells, Render: opensemRender},
	"depth":       {Name: "depth", Cells: depthCells, Render: depthRender},
	"granularity": {Name: "granularity", Cells: granularityCells, Render: granularityRender},
	"scaling":     {Name: "scaling", Cells: scalingCells, Render: scalingRender},
	"hybrid":      {Name: "hybrid", Cells: hybridCells, Render: hybridRender},
	"scale":       {Name: "scale", Cells: scaleCells, Render: scaleRender},
}

// wl pairs a workload name with its constructor; every cell builds a
// fresh instance so concurrent cells share no workload state.
type wl struct {
	name string
	mk   func() workloads.Workload
}

// scientificSuite is the Figure 5 workload suite in the paper's order,
// derived from the canonical workloads.Suite so the experiment grid and
// the differential checker agree on the matrix.
var scientificSuite = func() []wl {
	entries := workloads.Suite()
	out := make([]wl, 0, len(entries))
	for _, e := range entries {
		out = append(out, wl{e.Name, e.New})
	}
	return out
}()

// overheads reproduces the Section 7 instruction-count constants by
// measuring them on the live machine.
func overheadsCells(ctx Context) []Cell {
	return []Cell{{Label: "empty-tx", Run: func() Metrics {
		cfg := core.Config{CPUs: 1, Sched: ctx.Sched}
		col := ctx.collector(cfg)
		m := core.NewMachine(cfg)
		attach(col, m, "overheads/empty-tx")
		var insns uint64
		m.Run(func(p *core.Proc) {
			before := p.Counters().Instructions
			p.Atomic(func(tx *core.Tx) {})
			insns = p.Counters().Instructions - before
		})
		return Metrics{Instructions: insns, Fingerprint: fingerprint(m), Prof: col.Profile()}
	}}}
}

func overheadsRender(_ Context, res []Metrics, w io.Writer) {
	fmt.Fprintln(w, "Section 7 software-convention overheads (instructions):")
	fmt.Fprintf(w, "  transaction start (TCB allocation): %d (paper: 6)\n", core.CostXBegin)
	fmt.Fprintf(w, "  commit without handlers:            %d (paper: 10)\n", core.CostValidate+core.CostCommit)
	fmt.Fprintf(w, "  rollback without handlers:          %d (paper: 6)\n", core.CostRollback)
	fmt.Fprintf(w, "  handler registration:               %d (paper: 9)\n", core.CostRegisterHandler)
	fmt.Fprintf(w, "  measured empty transaction:         %d instructions\n", res[0].Instructions)
}

// figure5 reproduces Figure 5: speedup of full nesting support over
// flattening, annotated with the speedup over sequential.
func figure5Cells(ctx Context) []Cell {
	cells := make([]Cell, 0, len(scientificSuite))
	for _, s := range scientificSuite {
		s := s
		cells = append(cells, Cell{Label: s.name, Run: func() Metrics {
			cfg := ctx.base()
			col := ctx.collector(cfg)
			var nested *core.Machine
			row := workloads.MeasureFigure5Traced(s.mk(), cfg, ctx.CPUs, func(stage string, m *core.Machine) {
				if stage == "nested" {
					nested = m
				}
				attach(col, m, "figure5/"+s.name+"/"+stage)
			})
			m := FromReport(row.Nested)
			m.Fingerprint = fingerprint(nested)
			m.Values = map[string]float64{
				"overFlat":    row.SpeedupOverFlat,
				"overSeq":     row.SpeedupOverSeq,
				"flatOverSeq": row.FlatOverSeq,
			}
			m.Prof = col.Profile()
			return m
		}})
	}
	return cells
}

func figure5Render(ctx Context, res []Metrics, w io.Writer) {
	table := stats.NewTable(
		fmt.Sprintf("Figure 5: nesting vs flattening, %d CPUs (annotation = nested over sequential)", ctx.CPUs),
		"overFlat", "overSeq", "flatOverSeq")
	for _, m := range res {
		table.Set(m.Label, m.Values["overFlat"], m.Values["overSeq"], m.Values["flatOverSeq"])
	}
	fmt.Fprint(w, table)
	fmt.Fprintln(w, "paper anchors: mp3d 4.93x over flattening; SPECjbb2000 flat 1.92x over seq,")
	fmt.Fprintln(w, "closed +2.05x (3.94x seq), open +2.22x (4.25x seq)")
}

// io reproduces the Section 7.2 transactional-I/O scalability series
// (Figure 6 analogue). The speedups are relative to each scheme's own
// 1-CPU cell, so the render computes them from the collected cycles.
var ioCPUCounts = []int{1, 2, 4, 8, 16}

func ioCells(ctx Context) []Cell {
	var cells []Cell
	for _, serialize := range []bool{false, true} {
		for _, n := range ioCPUCounts {
			serialize, n := serialize, n
			label := fmt.Sprintf("%s/%d", workloads.DefaultIOBench(serialize).Name(), n)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				m, _ := ctx.execute(workloads.DefaultIOBench(serialize), ctx.base(), n, "io/"+label)
				return m
			}})
		}
	}
	return cells
}

func ioRender(_ Context, res []Metrics, w io.Writer) {
	fmt.Fprintln(w, "Transactional I/O scalability (speedup over 1 CPU) by CPU count:")
	tx := &stats.Series{Name: "transactional I/O (commit handlers)"}
	serial := &stats.Series{Name: "serialize-on-I/O baseline"}
	n := len(ioCPUCounts)
	for i, cnt := range ioCPUCounts {
		tx.Add(fmt.Sprintf("%d", cnt), float64(res[0].Cycles)/float64(res[i].Cycles))
		serial.Add(fmt.Sprintf("%d", cnt), float64(res[n].Cycles)/float64(res[n+i].Cycles))
	}
	fmt.Fprint(w, tx)
	fmt.Fprint(w, serial)
}

// condsync reproduces the conditional-scheduling benchmark (Figure 7
// analogue): watch/retry vs polling on a fixed CPU budget. It always
// runs without the oracle: the scheduler is deliberately
// non-serializable (it communicates through released reads).
var condPairCounts = []int{2, 4, 8, 16}

const condCPUBudget = 5

func condsyncCells(ctx Context) []Cell {
	var cells []Cell
	for _, polling := range []bool{false, true} {
		for _, pairs := range condPairCounts {
			polling, pairs := polling, pairs
			label := workloads.DefaultCondSyncBench(pairs, polling).Name()
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				wk := workloads.DefaultCondSyncBench(pairs, polling)
				cfg := core.DefaultConfig()
				cfg.Sched = ctx.Sched
				m, rep := ctx.execute(wk, cfg, condCPUBudget, "condsync/"+label)
				m.Values = map[string]float64{
					"items_per_kcycle": float64(pairs*wk.Items+wk.BackgroundChunks) * 1000 / float64(rep.TotalCycles),
				}
				return m
			}})
		}
	}
	return cells
}

func condsyncRender(_ Context, res []Metrics, w io.Writer) {
	fmt.Fprintf(w, "Conditional scheduling throughput (work items/kcycle) on %d CPUs by pair count:\n", condCPUBudget)
	watch := &stats.Series{Name: "watch/retry scheduler"}
	poll := &stats.Series{Name: "polling baseline"}
	n := len(condPairCounts)
	for i, pairs := range condPairCounts {
		watch.Add(fmt.Sprintf("%d", pairs), res[i].Values["items_per_kcycle"])
		poll.Add(fmt.Sprintf("%d", pairs), res[n+i].Values["items_per_kcycle"])
	}
	fmt.Fprint(w, watch)
	fmt.Fprint(w, poll)
}

// schemes is ablation A1: the multi-tracking vs associativity nesting
// schemes of Section 6.3.
var schemesWorkloads = []wl{scientificSuite[3], scientificSuite[7]} // mp3d, SPECjbb2000-closed

func schemesCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range schemesWorkloads {
		for _, scheme := range []cache.Scheme{cache.Associativity, cache.Multitrack} {
			s, scheme := s, scheme
			label := fmt.Sprintf("%s/%s", s.name, scheme)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				cfg := ctx.base()
				cfg.Cache.Scheme = scheme
				m, _ := ctx.execute(s.mk(), cfg, ctx.CPUs, "schemes/"+label)
				return m
			}})
		}
	}
	return cells
}

func schemesRender(_ Context, res []Metrics, w io.Writer) {
	table := stats.NewTable("Nesting-scheme ablation (cycles, nested runs)", "associativity", "multitrack", "ratio")
	for i, s := range schemesWorkloads {
		a, m := res[2*i].Cycles, res[2*i+1].Cycles
		table.Set(s.name, float64(a), float64(m), float64(m)/float64(a))
	}
	fmt.Fprint(w, table)
}

// engines is ablation A2: lazy (TCC write-buffer) vs eager (undo-log).
// The SPECjbb2000 variants are excluded: under the eager engine's
// requester-wins conflict resolution the warehouse's hot structures
// thrash pathologically without software contention management — exactly
// the motivation the paper gives for violation handlers (Section 3).
func enginesCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range scientificSuite[:7] {
		for _, engine := range []core.EngineKind{core.Lazy, core.Eager} {
			s, engine := s, engine
			label := fmt.Sprintf("%s/%s", s.name, engine)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				cfg := ctx.base()
				cfg.Engine = engine
				m, _ := ctx.execute(s.mk(), cfg, ctx.CPUs, "engines/"+label)
				return m
			}})
		}
	}
	return cells
}

func enginesRender(_ Context, res []Metrics, w io.Writer) {
	table := stats.NewTable("Engine ablation (cycles, nested runs)", "lazy", "eager", "eager/lazy")
	for i, s := range scientificSuite[:7] {
		l, e := res[2*i].Cycles, res[2*i+1].Cycles
		table.Set(s.name, float64(l), float64(e), float64(e)/float64(l))
	}
	fmt.Fprint(w, table)
}

// opensem is ablation A3: this paper's open-nesting semantics vs
// Moss-Hosking set trimming, demonstrating the atomicity anomaly.
func opensemCells(ctx Context) []Cell {
	mk := func(sem tm.OpenSemantics) Cell {
		return Cell{Label: sem.String(), Run: func() Metrics {
			var rollbacks uint64
			cfg := core.DefaultConfig()
			cfg.CPUs = 2
			cfg.OpenSemantics = sem
			cfg.Sched = ctx.Sched
			col := ctx.collector(cfg)
			m := core.NewMachine(cfg)
			attach(col, m, "opensem/"+sem.String())
			shared := m.AllocLine()
			m.Run(
				func(p *core.Proc) {
					p.Atomic(func(tx *core.Tx) {
						p.Load(shared)
						//tmlint:allow nesting -- the experiment measures the Moss/Hosking anomaly itself
						p.AtomicOpen(func(open *core.Tx) { p.Store(shared, 42) })
						p.Tick(4000)
					})
					rollbacks = p.Counters().Rollbacks
				},
				func(p *core.Proc) {
					p.Tick(1500)
					p.Atomic(func(tx *core.Tx) { p.Store(shared, 7) })
				},
			)
			return Metrics{Rollbacks: rollbacks, Fingerprint: fingerprint(m), Prof: col.Profile()}
		}}
	}
	return []Cell{mk(tm.PaperOpen), mk(tm.MossHoskingOpen)}
}

func opensemRender(_ Context, res []Metrics, w io.Writer) {
	fmt.Fprintln(w, "Open-nesting semantics litmus (parent reads a line its open child writes;")
	fmt.Fprintln(w, "a third-party transaction then commits a conflicting write):")
	fmt.Fprintf(w, "  paper semantics:        parent violated %d time(s)  (conflict detected)\n", res[0].Rollbacks)
	fmt.Fprintf(w, "  Moss-Hosking semantics: parent violated %d time(s)  (read-set trimmed: anomaly)\n", res[1].Rollbacks)
}

// depth is ablation A4: nesting-depth sensitivity against the hardware
// level budget (paper: 2-3 levels are the common case).
func depthCells(ctx Context) []Cell {
	var cells []Cell
	for d := 1; d <= 8; d++ {
		d := d
		cells = append(cells, Cell{Label: fmt.Sprintf("depth-%d", d), Run: func() Metrics {
			cfg := ctx.base()
			cfg.CPUs = 4
			col := ctx.collector(cfg)
			m := core.NewMachine(cfg)
			attach(col, m, fmt.Sprintf("depth/depth-%d", d))
			ctr := m.AllocLine()
			worker := func(p *core.Proc) {
				for i := 0; i < 20; i++ {
					var rec func(level int)
					rec = func(level int) {
						p.Atomic(func(tx *core.Tx) {
							p.Tick(40)
							if level < d {
								rec(level + 1)
							} else {
								p.Store(ctr, p.Load(ctr)+1)
							}
						})
					}
					rec(1)
				}
			}
			met := FromReport(m.Run(worker, worker, worker, worker))
			met.Fingerprint = fingerprint(m)
			met.Prof = col.Profile()
			return met
		}})
	}
	return cells
}

func depthRender(_ Context, res []Metrics, w io.Writer) {
	fmt.Fprintln(w, "Nesting-depth sweep (mp3d-style kernel nested to depth D, cycles):")
	s := &stats.Series{Name: "depth -> cycles (3 hardware levels, deeper levels virtualized)"}
	for i, m := range res {
		s.Add(fmt.Sprintf("%d", i+1), float64(m.Cycles))
	}
	fmt.Fprint(w, s)
}

// granularity is ablation A5: line- vs word-granularity conflict
// detection (Section 6.3.1's per-word R/W bits) on a false-sharing-prone
// configuration.
var granularityWorkloads = []wl{scientificSuite[3], scientificSuite[2]} // mp3d, moldyn

func granularityCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range granularityWorkloads {
		for _, word := range []bool{false, true} {
			s, word := s, word
			grain := "line"
			if word {
				grain = "word"
			}
			label := fmt.Sprintf("%s/%s", s.name, grain)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				cfg := ctx.base()
				cfg.WordTracking = word
				m, _ := ctx.execute(s.mk(), cfg, ctx.CPUs, "granularity/"+label)
				return m
			}})
		}
	}
	return cells
}

func granularityRender(_ Context, res []Metrics, w io.Writer) {
	table := stats.NewTable("Conflict-granularity ablation", "line-cycles", "word-cycles", "line-viol", "word-viol")
	for i, s := range granularityWorkloads {
		line, word := res[2*i], res[2*i+1]
		table.Set(s.name,
			float64(line.Cycles), float64(word.Cycles),
			float64(line.Violations), float64(word.Violations))
	}
	fmt.Fprint(w, table)
	fmt.Fprintln(w, "word tracking removes line-granularity false sharing; same-word conflicts remain")
}

// scaling sweeps CPU count (the paper's platform supports up to 16) for
// the nested versions of the headline workloads, reporting speedup over
// sequential: the bars' scalability context for Figure 5.
var (
	scalingWorkloads = []wl{scientificSuite[3], scientificSuite[8]} // mp3d, SPECjbb2000-open
	scalingCPUCounts = []int{1, 2, 4, 8, 16}
)

func scalingCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range scalingWorkloads {
		s := s
		cells = append(cells, Cell{Label: s.name + "/seq", Run: func() Metrics {
			cfg := ctx.base()
			col := ctx.collector(cfg)
			var mach *core.Machine
			m := FromReport(workloads.ExecuteSequentialTraced(s.mk(), cfg, func(mm *core.Machine) {
				mach = mm
				attach(col, mm, "scaling/"+s.name+"/seq")
			}))
			m.Fingerprint = fingerprint(mach)
			m.Prof = col.Profile()
			return m
		}})
		for _, n := range scalingCPUCounts {
			n := n
			label := fmt.Sprintf("%s/%d", s.name, n)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				m, _ := ctx.execute(s.mk(), ctx.base(), n, "scaling/"+label)
				return m
			}})
		}
	}
	return cells
}

func scalingRender(_ Context, res []Metrics, w io.Writer) {
	stride := 1 + len(scalingCPUCounts)
	for wi, s := range scalingWorkloads {
		base := wi * stride
		seq := res[base].Cycles
		ser := &stats.Series{Name: s.name + ": nested speedup over sequential by CPU count"}
		for i, n := range scalingCPUCounts {
			ser.Add(fmt.Sprintf("%d", n), float64(seq)/float64(res[base+1+i].Cycles))
		}
		fmt.Fprint(w, ser)
	}
}

// scale is the large-CMP sweep the event-loop scheduler unlocks: the
// headline workloads at 64/128/256 CPUs (with 16 as the link back to the
// paper's platform ceiling), reporting cycles and speedup over the
// 16-CPU cell. The paper's own sweep stops at 16 because that is where
// its evaluation platform tops out; past it, the hybrid-TM
// concurrency-loss literature (Brown & Ravi) predicts the interesting
// effects, and this grid is where they become measurable.
var (
	scaleWorkloads = []wl{scientificSuite[3], scientificSuite[8]} // mp3d, SPECjbb2000-open
	scaleCPUCounts = []int{16, 64, 128, 256}
)

func scaleCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range scaleWorkloads {
		for _, n := range scaleCPUCounts {
			s, n := s, n
			label := fmt.Sprintf("%s/%d", s.name, n)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				m, _ := ctx.execute(s.mk(), ctx.base(), n, "scale/"+label)
				return m
			}})
		}
	}
	return cells
}

func scaleRender(_ Context, res []Metrics, w io.Writer) {
	stride := len(scaleCPUCounts)
	for wi, s := range scaleWorkloads {
		base := wi * stride
		ser := &stats.Series{Name: s.name + ": speedup over 16 CPUs by CPU count (fixed total work)"}
		for i, n := range scaleCPUCounts {
			ser.Add(fmt.Sprintf("%d", n), float64(res[base].Cycles)/float64(res[base+i].Cycles))
		}
		fmt.Fprint(w, ser)
	}
	fmt.Fprintln(w, "64-256 CPU cells are beyond the paper's 16-CPU platform; see EXPERIMENTS.md")
}

// hybrid is the bounded-capacity-HTM-with-STM-fallback sweep: capacity ×
// retry budget × fallback mode over the full workload suite, after the
// hybrid-NOrec/HyTM capacity studies (Brown & Ravi; Alistarh et al.).
// Two arms per capacity value:
//
//   - htm-virt: an HTM-only machine whose *physical* cache holds exactly
//     the capacity (direct-mapped L1 = L2 = cap lines) with the paper's
//     virtualized overflow table. Past the bound every speculative access
//     pays OverflowPenalty, so throughput collapses with the footprint.
//     A bounded machine without a fallback is deliberately not an arm:
//     a deterministic over-capacity footprint capacity-aborts, retries
//     the identical footprint, and livelocks to the MaxCycles panic.
//   - serial/tl2: a bounded machine (BoundedSpec, MaxWriteLines = cap,
//     MaxReadLines = 4*cap) with the hybrid engine, sweeping the HTM
//     retry budget. Capacity aborts transition to the STM path and
//     commit there, so cycles degrade gracefully as capacity shrinks.
var (
	hybridCaps    = []int{1, 4, 16}
	hybridBudgets = []int{2, 8}
	hybridModes   = []core.FallbackKind{core.SerialFallback, core.TL2Fallback}
)

// hybridGroup is the cells per {workload, capacity} group: the htm-virt
// arm plus one hybrid arm per {mode, budget}.
func hybridGroup() int { return 1 + len(hybridModes)*len(hybridBudgets) }

func hybridCells(ctx Context) []Cell {
	var cells []Cell
	for _, s := range scientificSuite {
		for _, capLines := range hybridCaps {
			s, capLines := s, capLines
			label := fmt.Sprintf("%s/htm-virt/cap=%d", s.name, capLines)
			cells = append(cells, Cell{Label: label, Run: func() Metrics {
				cfg := ctx.base()
				cfg.Cache.L1Bytes = capLines * cfg.Cache.LineSize
				cfg.Cache.L1Ways = 1
				cfg.Cache.L2Bytes = capLines * cfg.Cache.LineSize
				cfg.Cache.L2Ways = 1
				m, _ := ctx.execute(s.mk(), cfg, ctx.CPUs, "hybrid/"+label)
				return m
			}})
			for _, fb := range hybridModes {
				for _, budget := range hybridBudgets {
					fb, budget := fb, budget
					label := fmt.Sprintf("%s/%s/cap=%d/budget=%d", s.name, fb, capLines, budget)
					cells = append(cells, Cell{Label: label, Run: func() Metrics {
						cfg := ctx.base()
						cfg.Fallback = fb
						cfg.HTMRetryBudget = budget
						cfg.Cache.BoundedSpec = true
						cfg.Cache.MaxWriteLines = capLines
						cfg.Cache.MaxReadLines = 4 * capLines
						m, rep := ctx.execute(s.mk(), cfg, ctx.CPUs, "hybrid/"+label)
						m.Values = map[string]float64{
							"capacityAborts": float64(rep.Machine.CapacityAborts),
							"fallbacks":      float64(rep.Machine.Fallbacks),
							"stmCommits":     float64(rep.Machine.StmCommits),
						}
						return m
					}})
				}
			}
		}
	}
	return cells
}

func hybridRender(_ Context, res []Metrics, w io.Writer) {
	group := hybridGroup()
	per := len(hybridCaps) * group
	cols := []string{"htm-virt"}
	for _, fb := range hybridModes {
		for _, b := range hybridBudgets {
			cols = append(cols, fmt.Sprintf("%s/b%d", fb, b))
		}
	}
	for ci, capLines := range hybridCaps {
		table := stats.NewTable(
			fmt.Sprintf("Hybrid engine at capacity %d write line(s) (cycles)", capLines), cols...)
		for wi, s := range scientificSuite {
			base := wi*per + ci*group
			vals := make([]float64, group)
			for k := 0; k < group; k++ {
				vals[k] = float64(res[base+k].Cycles)
			}
			table.Set(s.name, vals...)
		}
		fmt.Fprint(w, table)
	}
	var capAborts, fallbacks, stmCommits float64
	for _, m := range res {
		capAborts += m.Values["capacityAborts"]
		fallbacks += m.Values["fallbacks"]
		stmCommits += m.Values["stmCommits"]
	}
	fmt.Fprintf(w, "hybrid arms: %.0f capacity aborts -> %.0f fallback transitions, %.0f STM commits\n",
		capAborts, fallbacks, stmCommits)
	fmt.Fprintln(w, "htm-virt virtualizes overflow (collapses past the bound); bounded HTM without a")
	fmt.Fprintln(w, "fallback would livelock on any deterministic over-capacity footprint")
}
