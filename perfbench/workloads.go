package main

import (
	"tmisa/internal/core"
	"tmisa/internal/workloads"
)

// A cell is one simulation of a workload's matrix: a fresh program
// instance on a fresh machine built from cfg.
type cell struct {
	label string
	cfg   core.Config
	mk    func() workloads.Workload
}

// A workload is a fixed matrix of cells that the benchmark runs in
// passes. With observed set, every cell runs with the oracle, a tmprof
// collector and a tracebin stream attached.
type workload struct {
	name     string
	observed bool
	cells    func() []cell
}

// benchWorkloads are the benchmark's workloads; README.md says why each
// exists and which layer it stresses.
var benchWorkloads = []workload{
	{name: "fig5-8cpu", cells: fig5Cells},
	{name: "cmp256", cells: cmp256Cells},
	{name: "hybrid-cap16", cells: hybridCells},
	{name: "fig5-observed", cells: fig5Cells, observed: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// platform is the paper's lazy platform at the given CPU count, with
// the livelock bound workloads.ExecuteTraced applies.
func platform(cpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.CPUs = cpus
	cfg.MaxCycles = 3_000_000_000
	return cfg
}

// fig5Cells is the paper's Figure 5 matrix: every suite program run
// sequentially on one CPU, flattened on 8 and nested on 8.
func fig5Cells() []cell {
	var cells []cell
	for _, e := range workloads.Suite() {
		seq := platform(1)
		seq.Sequential = true
		flat := platform(8)
		flat.Flatten = true
		cells = append(cells,
			cell{e.Name + "/seq", seq, e.New},
			cell{e.Name + "/flat", flat, e.New},
			cell{e.Name + "/nested", platform(8), e.New})
	}
	return cells
}

// cmp256Cells are the two largest cells of the scale experiment.
func cmp256Cells() []cell {
	var cells []cell
	for _, e := range workloads.Suite() {
		if e.Name == "mp3d" || e.Name == "SPECjbb2000-open" {
			cells = append(cells, cell{e.Name + "/256", platform(256), e.New})
		}
	}
	return cells
}

// hybridCells are the hybrid experiment's capacity-16, budget-2 cells:
// bounded HTM falling back to the serial and the TL2 software paths.
func hybridCells() []cell {
	var cells []cell
	for _, e := range workloads.Suite() {
		for _, fb := range []core.FallbackKind{core.SerialFallback, core.TL2Fallback} {
			cfg := platform(8)
			cfg.Fallback = fb
			cfg.HTMRetryBudget = 2
			cfg.Cache.BoundedSpec = true
			cfg.Cache.MaxWriteLines = 16
			cfg.Cache.MaxReadLines = 64
			cells = append(cells, cell{e.Name + "/" + fb.String(), cfg, e.New})
		}
	}
	return cells
}
