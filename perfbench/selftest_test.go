package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got holds exactly the metrics of want, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, w.Name, m.Value)
		}
	}
}

// TestSelfTest runs one short pass of each workload (plus one profiled
// pass) under two seeds: every metric BENCHMARK.json names is printed
// with its unit, every cell passes the correctness gate, simulated
// cycles do not depend on the seed, and the seed fixes the cell order.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range benchWorkloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}

	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var mcycles []float64
			for _, seed := range []int64{1, 2} {
				r, err := measure(w, options{seed: seed, minPasses: 1, profiled: seed == 1, log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("seed %d: %d of %d cell runs failed", seed, r.failed, r.attempted)
				}
				e2e := endToEnd(r)
				checkMetrics(t, "end-to-end", e2e, s.EndToEnd)
				for name, m := range e2e {
					if m.Value <= 0 {
						t.Errorf("seed %d: %s = %v, want > 0", seed, name, m.Value)
					}
				}
				if seed == 1 {
					checkMetrics(t, "per-layer", perLayer(r), s.PerLayer)
				}
				mcycles = append(mcycles, e2e["sim_mcycles"].Value)

				next := cellOrder(seed, len(w.cells()))
				for i, order := range r.orders {
					if want := next(); !reflect.DeepEqual(order, want) {
						t.Fatalf("seed %d pass %d ran cells in order %v, the seed gives %v", seed, i, order, want)
					}
				}
			}
			if mcycles[0] != mcycles[1] {
				t.Errorf("sim_mcycles %v under seed 1, %v under seed 2", mcycles[0], mcycles[1])
			}
			if a, b := cellOrder(1, 27)(), cellOrder(2, 27)(); reflect.DeepEqual(a, b) {
				t.Errorf("seeds 1 and 2 give the same cell order %v", a)
			}
		})
	}
}
