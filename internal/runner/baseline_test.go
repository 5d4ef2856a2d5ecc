package runner

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/BENCH_baseline.json from the current tree")

const baselinePath = "testdata/BENCH_baseline.json"

// baselineExperiments is the fast subset the regression gate re-runs on
// every test invocation (the full suite runs in cmd/experiments' own
// determinism tests). opensem and depth are pure-kernel sweeps; schemes
// covers both nesting schemes on the two headline workloads; scale pins
// the 64/128/256-CPU cells the event-loop scheduler unlocked.
var baselineExperiments = []string{"opensem", "depth", "schemes", "scale"}

// wallTolerance is how many times slower than the recorded wall-clock a
// re-run may be before the gate fails. Deliberately generous: it exists
// to catch order-of-magnitude simulator regressions, not machine noise.
const wallTolerance = 25

func runBaselineSubset(t *testing.T) []BenchFile {
	t.Helper()
	ctx := Context{CPUs: 8}
	var files []BenchFile
	for _, name := range baselineExperiments {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("baseline experiment %q not in registry", name)
		}
		start := time.Now()
		res, err := Run(e.Cells(ctx), 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files = append(files, NewBenchFile(name, ctx, 0, res, time.Since(start)))
	}
	return files
}

// TestBaselineRegression is the perf/correctness gate: the simulated
// counters and final machine fingerprints of the baseline subset must
// match testdata/BENCH_baseline.json exactly (they are deterministic —
// any drift is a semantics change that must be intentional), and
// wall-clock must not regress catastrophically.
// Refresh the baseline after an intentional change with
//
//	go test ./internal/runner -run TestBaselineRegression -update
func TestBaselineRegression(t *testing.T) {
	got := runBaselineSubset(t)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline regenerated: %s", baselinePath)
		return
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("no baseline (regenerate with -update): %v", err)
	}
	var want []BenchFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", baselinePath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("baseline has %d experiments, current run has %d (regenerate with -update?)", len(want), len(got))
	}

	for i, wf := range want {
		gf := got[i]
		if wf.Schema != BenchSchema {
			t.Fatalf("%s: baseline schema %d, binary expects %d (regenerate with -update)", wf.Experiment, wf.Schema, BenchSchema)
		}
		if wf.Experiment != gf.Experiment {
			t.Fatalf("experiment %d: baseline %q, current %q", i, wf.Experiment, gf.Experiment)
		}
		if wf.Config != gf.Config {
			t.Errorf("%s: config fingerprint drifted\nbaseline: %s\ncurrent:  %s", wf.Experiment, wf.Config, gf.Config)
		}
		if len(wf.Cells) != len(gf.Cells) {
			t.Errorf("%s: %d baseline cells, %d current", wf.Experiment, len(wf.Cells), len(gf.Cells))
			continue
		}
		for j, wc := range wf.Cells {
			gc := gf.Cells[j]
			if wc.Label != gc.Label {
				t.Errorf("%s cell %d: label %q -> %q", wf.Experiment, j, wc.Label, gc.Label)
				continue
			}
			// Simulated counters are deterministic: any drift at all fails.
			if wc.Cycles != gc.Cycles || wc.Rollbacks != gc.Rollbacks ||
				wc.Instructions != gc.Instructions || wc.Violations != gc.Violations {
				t.Errorf("%s/%s: counters drifted from baseline (intentional? refresh with -update)\n"+
					"baseline: cycles=%d rollbacks=%d instructions=%d violations=%d\n"+
					"current:  cycles=%d rollbacks=%d instructions=%d violations=%d",
					wf.Experiment, wc.Label,
					wc.Cycles, wc.Rollbacks, wc.Instructions, wc.Violations,
					gc.Cycles, gc.Rollbacks, gc.Instructions, gc.Violations)
			}
			// The final machine state is just as deterministic: a change
			// that keeps the counters but reorders the run (or leaves the
			// caches, stacks or memory in another state) fails here.
			if wc.Fingerprint != gc.Fingerprint {
				t.Errorf("%s/%s: final fingerprint drifted from baseline: %q -> %q",
					wf.Experiment, wc.Label, wc.Fingerprint, gc.Fingerprint)
			}
		}
		// Wall-clock gate: generous, and skipped under the race detector
		// (its slowdown is not a simulator regression).
		if !raceEnabled && wf.TotalWallNS > 0 && gf.TotalWallNS > wallTolerance*wf.TotalWallNS {
			t.Errorf("%s: wall-clock %.1fms is more than %dx the baseline %.1fms",
				wf.Experiment, float64(gf.TotalWallNS)/1e6, wallTolerance, float64(wf.TotalWallNS)/1e6)
		}
	}
}
