// Package runner shards the experiment matrix of cmd/experiments across
// worker goroutines. Every cell of the matrix — one {workload × engine ×
// cpus × scheme} simulation — builds its own core.Machine/sim.Engine, so
// no simulator state is shared between cells and running them
// concurrently cannot perturb any simulated cycle count. Determinism is
// preserved structurally: cells are identified by their index in the
// matrix, workers write results into a slice at that index, and tables
// are always assembled in matrix order, never in completion order.
//
// The package also owns the experiment registry (experiments.go): each
// experiment declares its cells plus a Render function that formats the
// collected metrics into exactly the tables cmd/experiments prints, and
// bench.go serializes the same metrics as machine-readable
// BENCH_<exp>.json files for the regression baseline.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tmisa/internal/core"
	"tmisa/internal/stats"
	"tmisa/internal/tmprof"
)

// Metrics is the machine-readable measurement from one matrix cell. The
// counter fields come from the simulation and are bit-deterministic;
// WallNS is host wall-clock and is the only nondeterministic field.
type Metrics struct {
	// Label identifies the cell within its experiment ("mp3d/eager",
	// "io-transactional/8", ...). Filled by Run from the Cell.
	Label string `json:"label"`

	// Simulated counters for the cell's primary run (deterministic).
	Cycles       uint64 `json:"cycles"`
	Rollbacks    uint64 `json:"rollbacks"`
	Instructions uint64 `json:"instructions"`
	Violations   uint64 `json:"violations"`

	// Fingerprint is the cell's final core.Machine.Fingerprint in hex:
	// the whole behavioural end state (caches, TCB stacks, memory image),
	// so a change that keeps every counter but reorders the run still
	// shows. Taken after Run returns, outside the simulation.
	// Deterministic.
	Fingerprint string `json:"fingerprint,omitempty"`

	// Values holds experiment-specific derived numbers (speedups,
	// per-variant cycle counts) keyed by a stable name. Deterministic.
	Values map[string]float64 `json:"values,omitempty"`

	// WallNS is the host time the cell took (nondeterministic; zeroed by
	// Canonicalize before determinism comparisons).
	WallNS int64 `json:"wall_ns"`

	// Prof is the cell's tmprof profile when Context.Profile is set, nil
	// otherwise. Excluded from the bench JSON so baselines and
	// determinism diffs are identical with and without profiling; callers
	// merge the per-cell profiles in matrix order (MergeProfiles).
	Prof *tmprof.Profile `json:"-"`
}

// MergeProfiles merges the per-cell profiles of a result slice in matrix
// order — the same order at any parallelism, so a merged profile is
// deterministic. Returns nil when no cell carried a profile.
func MergeProfiles(res []Metrics) *tmprof.Profile {
	profiles := make([]*tmprof.Profile, len(res))
	for i := range res {
		profiles[i] = res[i].Prof
	}
	return tmprof.Merge(profiles...)
}

// FromReport extracts the standard counters from a run report.
func FromReport(rep *stats.Report) Metrics {
	return Metrics{
		Cycles:       rep.TotalCycles,
		Rollbacks:    rep.Machine.Rollbacks,
		Instructions: rep.Machine.Instructions,
		Violations:   rep.Machine.Violations,
	}
}

// fingerprint renders a finished machine's Fingerprint for Metrics.
func fingerprint(m *core.Machine) string { return fmt.Sprintf("%016x", m.Fingerprint()) }

// Cell is one independently runnable unit of an experiment matrix. Run
// must build all simulator state itself (its own Machine) and must not
// touch anything shared with other cells.
type Cell struct {
	Label string
	Run   func() Metrics
}

// Run executes cells on parallel worker goroutines and returns the
// metrics in cell order (never completion order). parallel < 1 means
// runtime.NumCPU(). progress, when non-nil, is called after each cell
// completes with the number done so far; calls are serialized.
//
// A cell that panics (a workload Verify failure, an oracle violation)
// does not crash the pool: the panic is captured and returned as an
// error naming the first failing cell in matrix order, after all other
// cells have finished.
func Run(cells []Cell, parallel int, progress func(done, total int)) ([]Metrics, error) {
	if parallel < 1 {
		parallel = runtime.NumCPU()
	}
	if parallel > len(cells) {
		parallel = len(cells)
	}
	results := make([]Metrics, len(cells))
	errs := make([]error, len(cells))

	var mu sync.Mutex // serializes progress reporting
	done := 0

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				m, err := runCell(cells[i])
				m.WallNS = time.Since(start).Nanoseconds()
				m.Label = cells[i].Label
				results[i] = m
				errs[i] = err
				if progress != nil {
					mu.Lock()
					done++
					progress(done, len(cells))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("cell %d (%s): %w", i, cells[i].Label, err)
		}
	}
	return results, nil
}

// runCell runs one cell, converting a panic into an error so one failing
// simulation does not take down the whole pool.
func runCell(c Cell) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	m = c.Run()
	return m, nil
}
