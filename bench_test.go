package tmisa_test

// One benchmark per evaluation artifact of the paper (see DESIGN.md's
// per-experiment index). Each benchmark regenerates its table or figure
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Simulated results are deterministic;
// b.N iterations re-run the same simulation (wall-clock ns/op measures
// simulator throughput, while the custom metrics carry the paper's
// numbers).

import (
	"fmt"
	"runtime"
	"testing"

	"tmisa/internal/cache"
	"tmisa/internal/core"
	"tmisa/internal/runner"
	"tmisa/internal/tm"
	"tmisa/internal/workloads"
)

// BenchmarkTable1StateAccess exercises the architected state of Table 1:
// TCB allocation, handler-stack pushes, and violation-state delivery, as
// the per-event instruction costs visible to software.
func BenchmarkTable1StateAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(core.Config{CPUs: 1})
		m.Run(func(p *core.Proc) {
			for k := 0; k < 100; k++ {
				p.Atomic(func(tx *core.Tx) {
					tx.OnCommit(func(*core.Proc) {})
					p.Atomic(func(inner *core.Tx) {
						inner.OnViolation(func(*core.Proc, core.Violation) core.Decision { return core.Rollback })
					})
				})
			}
		})
	}
}

// BenchmarkTable2Instructions drives every instruction of Table 2.
func BenchmarkTable2Instructions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(core.Config{CPUs: 1})
		a := m.AllocLine()
		m.Run(func(p *core.Proc) {
			for k := 0; k < 50; k++ {
				p.Atomic(func(tx *core.Tx) { // xbegin/xvalidate/xcommit
					p.Store(a, p.Load(a)+1)
					p.Imld(a)
					p.Imst(a, 1)
					p.Imstid(a, 2)
					p.Release(a)
					p.AtomicOpen(func(*core.Tx) { p.Load(a) }) // xbegin_open
				})
				p.Atomic(func(tx *core.Tx) { tx.Abort(nil) }) // xabort
			}
		})
	}
}

// BenchmarkSection7Overheads measures the empty-transaction instruction
// cost (paper: 6-instruction start + 10-instruction handler-free commit).
func BenchmarkSection7Overheads(b *testing.B) {
	var insns uint64
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(core.Config{CPUs: 1})
		m.Run(func(p *core.Proc) {
			before := p.Counters().Instructions
			p.Atomic(func(tx *core.Tx) {})
			insns = p.Counters().Instructions - before
		})
	}
	b.ReportMetric(float64(insns), "insns/empty-txn")
}

// BenchmarkFigure5NestingSpeedup regenerates Figure 5: per-workload
// speedup of full nesting over flattening at 8 CPUs, reported as metrics.
func BenchmarkFigure5NestingSpeedup(b *testing.B) {
	for _, mk := range figure5Suite() {
		w := mk()
		b.Run(w.Name(), func(b *testing.B) {
			var row workloads.Figure5Row
			for i := 0; i < b.N; i++ {
				row = workloads.MeasureFigure5(mk(), core.DefaultConfig(), 8)
			}
			b.ReportMetric(row.SpeedupOverFlat, "x-over-flat")
			b.ReportMetric(row.SpeedupOverSeq, "x-over-seq")
		})
	}
}

func figure5Suite() []func() workloads.Workload {
	return []func() workloads.Workload{
		func() workloads.Workload { return workloads.DefaultBarnes() },
		func() workloads.Workload { return workloads.DefaultFMM() },
		func() workloads.Workload { return workloads.DefaultMoldyn() },
		func() workloads.Workload { return workloads.DefaultMP3D() },
		func() workloads.Workload { return workloads.DefaultSwim() },
		func() workloads.Workload { return workloads.DefaultTomcatv() },
		func() workloads.Workload { return workloads.DefaultWater() },
		func() workloads.Workload { return workloads.DefaultJBB(workloads.JBBClosed) },
		func() workloads.Workload { return workloads.DefaultJBB(workloads.JBBOpen) },
	}
}

// BenchmarkTransactionalIO regenerates the Section 7.2 figure: I/O
// throughput scaling for the commit-handler scheme vs the serialize-on-
// I/O baseline.
func BenchmarkTransactionalIO(b *testing.B) {
	for _, cpus := range []int{1, 2, 4, 8, 16} {
		for _, serialize := range []bool{false, true} {
			w := workloads.DefaultIOBench(serialize)
			b.Run(fmt.Sprintf("%s/cpus=%d", w.Name(), cpus), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					rep := workloads.Execute(workloads.DefaultIOBench(serialize), core.DefaultConfig(), cpus)
					cycles = rep.TotalCycles
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// BenchmarkConditionalSync regenerates the conditional-scheduling figure:
// watch/retry vs polling on a fixed 5-CPU budget across pair counts.
func BenchmarkConditionalSync(b *testing.B) {
	for _, pairs := range []int{2, 4, 8, 16} {
		for _, polling := range []bool{false, true} {
			w := workloads.DefaultCondSyncBench(pairs, polling)
			b.Run(fmt.Sprintf("%s", w.Name()), func(b *testing.B) {
				var cycles, insns uint64
				for i := 0; i < b.N; i++ {
					rep := workloads.Execute(workloads.DefaultCondSyncBench(pairs, polling), core.DefaultConfig(), 5)
					cycles, insns = rep.TotalCycles, rep.Machine.Instructions
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
				b.ReportMetric(float64(insns), "sim-insns")
			})
		}
	}
}

// BenchmarkNestingSchemes is ablation A1: multi-tracking vs associativity
// cache nesting schemes (Section 6.3).
func BenchmarkNestingSchemes(b *testing.B) {
	for _, scheme := range []cache.Scheme{cache.Associativity, cache.Multitrack} {
		b.Run(scheme.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Cache.Scheme = scheme
				rep := workloads.Execute(workloads.DefaultMP3D(), cfg, 8)
				cycles = rep.TotalCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkEngines is ablation A2: lazy (TCC write-buffer) vs eager
// (undo-log) HTM engines on mp3d.
func BenchmarkEngines(b *testing.B) {
	for _, engine := range []core.EngineKind{core.Lazy, core.Eager} {
		b.Run(engine.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Engine = engine
				rep := workloads.Execute(workloads.DefaultMP3D(), cfg, 8)
				cycles = rep.TotalCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkOpenSemantics is ablation A3: the paper's open-nesting
// semantics vs Moss–Hosking trimming, measured as violations caught on
// the litmus workload (the anomaly shows as zero under trimming).
func BenchmarkOpenSemantics(b *testing.B) {
	for _, sem := range []tm.OpenSemantics{tm.PaperOpen, tm.MossHoskingOpen} {
		name := "paper"
		if sem == tm.MossHoskingOpen {
			name = "moss-hosking"
		}
		b.Run(name, func(b *testing.B) {
			var rollbacks uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.CPUs = 2
				cfg.OpenSemantics = sem
				m := core.NewMachine(cfg)
				shared := m.AllocLine()
				m.Run(
					func(p *core.Proc) {
						p.Atomic(func(tx *core.Tx) {
							p.Load(shared)
							//tmlint:allow nesting -- benchmarks the raw Moss/Hosking anomaly path; no compensation wanted
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
			}
			b.ReportMetric(float64(rollbacks), "parent-rollbacks")
		})
	}
}

// BenchmarkNestingDepth is ablation A4: cost of nesting depth against the
// 3-level hardware budget (deeper levels virtualize).
func BenchmarkNestingDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.CPUs = 4
				m := core.NewMachine(cfg)
				ctr := m.AllocLine()
				worker := func(p *core.Proc) {
					for k := 0; k < 20; k++ {
						var rec func(level int)
						rec = func(level int) {
							p.Atomic(func(tx *core.Tx) {
								p.Tick(40)
								if level < depth {
									rec(level + 1)
								} else {
									p.Store(ctr, p.Load(ctr)+1)
								}
							})
						}
						rec(1)
					}
				}
				rep := m.Run(worker, worker, worker, worker)
				cycles = rep.TotalCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkEngineHotPath guards the simulator's per-instruction fast
// paths (the sim.Yield no-rendezvous path, the cache's speculative-line
// lists and first-touch sets, the memory page cache, and the TCB stack's
// per-depth level reuse): a transaction-dense kernel whose ns/op and
// allocs/op regress if any of them is lost. Simulated cycle counts are
// pinned elsewhere (the runner baseline test); this benchmark watches
// host-side cost only.
func BenchmarkEngineHotPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.CPUs = 4
		m := core.NewMachine(cfg)
		line := m.AllocLine()
		worker := func(p *core.Proc) {
			for k := 0; k < 300; k++ {
				p.Atomic(func(tx *core.Tx) {
					p.Store(line, p.Load(line)+1)
					p.Atomic(func(inner *core.Tx) {
						p.Tick(10)
						p.Store(line, p.Load(line)+1)
					})
				})
			}
		}
		m.Run(worker, worker, worker, worker)
	}
}

// BenchmarkParallelHarness measures the worker-pool runner end to end on
// the depth experiment's 8-cell matrix, at one worker and at the host's
// CPU count: the tentpole's wall-clock win (on multi-core hosts) and the
// sharding overhead (on any host) both show up here.
func BenchmarkParallelHarness(b *testing.B) {
	exp, ok := runner.Find("depth")
	if !ok {
		b.Fatal("depth experiment missing")
	}
	ctx := runner.Context{CPUs: 8}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(exp.Cells(ctx), workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
