package tmfuzz

import (
	"testing"

	"tmisa/internal/core"
	"tmisa/internal/sim"
)

// fuzzSweepSeed is the fixed master seed of the scheduler differential
// sweep. Changing it changes which programs are swept, not what the
// sweep asserts, so there is never a reason to.
const fuzzSweepSeed = 0x5eed_0dd5

// TestFuzzSweepSchedEquivalence derives a fixed-seed case stream and
// executes every case twice — once on the event-loop scheduler, once on
// the legacy goroutine scheduler — requiring identical verdicts, final
// memory outcomes, and per-CPU cycle counts. The generator covers both
// engines, the hybrid fallbacks, weak memory models, fault injection,
// and seeded tie-break/drain perturbation, so this sweep exercises
// scheduler corners (backoff stalls, commit-token waits, violation
// kicks, store-buffer drains) the curated experiments never reach.
//
// Agreement alone is not enough: a lost wakeup deadlocks both schedulers
// the same way. Every case must also run clean — deleting the stall wake
// in rollbackLevel deadlocks case 3,290, and this check catches it.
func TestFuzzSweepSchedEquivalence(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 300
	}
	legacy := &ExecHooks{Configure: func(cfg *core.Config) { cfg.Sched = sim.SchedGoroutine }}
	for i := 0; i < n; i++ {
		prog, mc := DeriveCase(fuzzSweepSeed, i)
		ev := Execute(prog, mc)
		// A fresh derivation for the second run keeps the executions
		// fully independent (Execute shares no state with the program,
		// but the differential must not depend on that).
		prog2, mc2 := DeriveCase(fuzzSweepSeed, i)
		gr := ExecuteHooked(prog2, mc2, legacy)

		if ev.Category != gr.Category {
			t.Fatalf("case %d: verdict diverged: eventloop %q, goroutine %q (eventloop err: %v; goroutine err: %v)",
				i, statusOf(ev), statusOf(gr), ev.Err, gr.Err)
		}
		if ev.Failed() {
			t.Fatalf("case %d (%s): %s on both schedulers: %v", i, mc, ev.Category, ev.Err)
		}
		if ev.Outcome != gr.Outcome {
			t.Fatalf("case %d: outcome diverged:\neventloop: %s\ngoroutine: %s", i, ev.Outcome, gr.Outcome)
		}
		if (ev.Report == nil) != (gr.Report == nil) {
			t.Fatalf("case %d: one scheduler produced a report, the other did not", i)
		}
		if ev.Report == nil {
			continue
		}
		if ev.Report.TotalCycles != gr.Report.TotalCycles {
			t.Fatalf("case %d: total cycles diverged: eventloop %d, goroutine %d",
				i, ev.Report.TotalCycles, gr.Report.TotalCycles)
		}
		for cpu := range ev.Report.PerCPU {
			if ev.Report.PerCPU[cpu] != gr.Report.PerCPU[cpu] {
				t.Fatalf("case %d CPU %d: counters diverged:\neventloop: %+v\ngoroutine: %+v",
					i, cpu, ev.Report.PerCPU[cpu], gr.Report.PerCPU[cpu])
			}
		}
	}
}
