package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// forEachSched runs a test body once per scheduler implementation. mk
// builds an engine backed by the subtest's scheduler; every contract in
// this file must hold identically for both.
func forEachSched(t *testing.T, f func(t *testing.T, mk func(n int) *Engine)) {
	for _, s := range Scheds() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			f(t, func(n int) *Engine { return NewEngineSched(n, s) })
		})
	}
}

// TestSingleCPURunsToCompletion checks the trivial case: one CPU, pure
// compute, halts with the right local time.
func TestSingleCPURunsToCompletion(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(1)
		ran := false
		e.Run([]func(*P){func(p *P) {
			p.Advance(42)
			ran = true
		}})
		if !ran {
			t.Fatal("body did not run")
		}
		if got := e.Proc(0).Time(); got != 42 {
			t.Fatalf("time = %d, want 42", got)
		}
		if e.Proc(0).State() != Halted {
			t.Fatalf("state = %v, want halted", e.Proc(0).State())
		}
	})
}

// TestInterleavingIsTimeOrdered verifies that CPUs are granted strictly in
// (time, id) order: the shared trace must come out sorted by the time at
// which each op executed.
func TestInterleavingIsTimeOrdered(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(3)
		type ev struct {
			cpu  int
			time uint64
		}
		var trace []ev
		// CPU i performs ops with latency i+1, so they interleave nontrivially.
		mkBody := func(id int) func(*P) {
			return func(p *P) {
				for k := 0; k < 5; k++ {
					p.Yield()
					trace = append(trace, ev{p.ID, p.Time()})
					p.Advance(uint64(id + 1))
				}
			}
		}
		e.Run([]func(*P){mkBody(0), mkBody(1), mkBody(2)})
		if len(trace) != 15 {
			t.Fatalf("trace has %d events, want 15", len(trace))
		}
		for i := 1; i < len(trace); i++ {
			a, b := trace[i-1], trace[i]
			if b.time < a.time || (b.time == a.time && b.cpu < a.cpu) {
				t.Fatalf("event %d (%+v) out of order after %+v", i, b, a)
			}
		}
	})
}

// TestDeterminism runs the same nontrivial program twice and requires
// identical traces.
func TestDeterminism(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		run := func() []string {
			e := mk(4)
			var trace []string
			shared := uint64(0)
			mkBody := func(id int) func(*P) {
				return func(p *P) {
					for k := 0; k < 20; k++ {
						p.Yield()
						shared = shared*31 + uint64(p.ID)
						trace = append(trace, fmt.Sprintf("%d@%d:%d", p.ID, p.Time(), shared))
						p.Advance(uint64((id*7+k)%5 + 1))
					}
				}
			}
			e.Run([]func(*P){mkBody(0), mkBody(1), mkBody(2), mkBody(3)})
			return trace
		}
		a, b := run(), run()
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatal("two identical runs produced different traces")
		}
	})
}

// TestBlockUnblock checks the block/unblock handshake: a blocked CPU does
// not run until released, and wakes no earlier than the release time.
func TestBlockUnblock(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(2)
		var wokeAt uint64
		waiter := func(p *P) {
			p.Yield()
			p.Block("test-token")
			wokeAt = p.Time()
		}
		releaser := func(p *P) {
			p.Advance(100)
			p.Yield()
			e.Proc(0).Unblock(p.Time())
		}
		e.Run([]func(*P){waiter, releaser})
		if wokeAt != 100 {
			t.Fatalf("waiter woke at %d, want 100", wokeAt)
		}
	})
}

// TestUnblockDoesNotRewindClock verifies Unblock never moves a CPU's time
// backward.
func TestUnblockDoesNotRewindClock(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(2)
		var wokeAt uint64
		waiter := func(p *P) {
			p.Advance(500) // the waiter is already far in the future
			p.Block("test")
			wokeAt = p.Time()
		}
		releaser := func(p *P) {
			for e.Proc(0).State() != Waiting {
				p.Advance(1)
				p.Yield()
			}
			e.Proc(0).Unblock(p.Time()) // release time is far earlier than 500
		}
		e.Run([]func(*P){waiter, releaser})
		if wokeAt != 500 {
			t.Fatalf("waiter woke at %d, want 500 (no rewind)", wokeAt)
		}
	})
}

// TestDeadlockDetection: two CPUs block forever; the engine must panic
// with a diagnostic naming both.
func TestDeadlockDetection(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected deadlock panic")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "lockA") {
				t.Fatalf("unhelpful deadlock message: %q", msg)
			}
		}()
		e := mk(2)
		e.Run([]func(*P){
			func(p *P) { p.Block("lockA") },
			func(p *P) { p.Block("lockB") },
		})
	})
}

// TestBodyPanicIsReportedWithContext: a panicking body must surface as an
// engine panic that names the CPU.
func TestBodyPanicIsReportedWithContext(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "CPU 1") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic lacks context: %q", msg)
			}
		}()
		e := mk(2)
		e.Run([]func(*P){
			func(p *P) { p.Advance(1) },
			func(p *P) { panic("boom") },
		})
	})
}

// TestMaxCyclesGuard catches livelocks.
func TestMaxCyclesGuard(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxCycles") {
				t.Fatalf("expected MaxCycles panic, got %v", r)
			}
		}()
		e := mk(1)
		e.MaxCycles = 1000
		e.Run([]func(*P){func(p *P) {
			for {
				p.Yield()
				p.Advance(1)
			}
		}})
	})
}

// TestFewerBodiesThanCPUs: extra CPUs halt immediately.
func TestFewerBodiesThanCPUs(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(4)
		n := 0
		e.Run([]func(*P){func(p *P) { n++ }})
		if n != 1 {
			t.Fatalf("ran %d bodies, want 1", n)
		}
		for i := 1; i < 4; i++ {
			if e.Proc(i).State() != Halted {
				t.Fatalf("CPU %d not halted", i)
			}
		}
	})
}

// TestNilBodyHalts: nil entries in the body slice are tolerated.
func TestNilBodyHalts(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(2)
		n := 0
		e.Run([]func(*P){nil, func(p *P) { n++ }})
		if n != 1 {
			t.Fatalf("ran %d bodies, want 1", n)
		}
	})
}

// TestSameTimeTieBreaksByID: when several CPUs are ready at the same
// cycle, the lower id must always run first.
func TestSameTimeTieBreaksByID(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(3)
		var order []int
		body := func(p *P) {
			p.Yield()
			order = append(order, p.ID)
		}
		e.Run([]func(*P){body, body, body})
		for i, id := range order {
			if id != i {
				t.Fatalf("grant order %v, want [0 1 2]", order)
			}
		}
	})
}

// TestEngineNowTracksGrants: Now reflects the granted CPU's time.
func TestEngineNowTracksGrants(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(1)
		e.Run([]func(*P){func(p *P) {
			p.Advance(7)
			p.Yield()
			if e.Now() != 7 {
				t.Errorf("Now() = %d, want 7", e.Now())
			}
		}})
	})
}

// TestRunReentryPanics: nested Run is a bug.
func TestRunReentryPanics(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(1)
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected panic on re-entry")
			}
		}()
		e.Run([]func(*P){func(p *P) {
			e.Run([]func(*P){func(*P) {}})
		}})
	})
}

// TestQuickGrantOrderIsGloballyTimeSorted: for random per-op latencies,
// the sequence of (time, cpu) at each op is nondecreasing in time with
// id tiebreak — the engine's fundamental invariant.
func TestQuickGrantOrderIsGloballyTimeSorted(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		f := func(lat [3][]uint8) bool {
			e := mk(3)
			type ev struct {
				time uint64
				cpu  int
			}
			var traceEv []ev
			mkBody := func(id int) func(*P) {
				return func(p *P) {
					for _, l := range lat[id] {
						p.Yield()
						traceEv = append(traceEv, ev{p.Time(), p.ID})
						p.Advance(uint64(l%17) + 1)
					}
				}
			}
			e.Run([]func(*P){mkBody(0), mkBody(1), mkBody(2)})
			for i := 1; i < len(traceEv); i++ {
				a, b := traceEv[i-1], traceEv[i]
				if b.time < a.time || (b.time == a.time && b.cpu < a.cpu) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEnginePanicDoesNotLeakGoroutines: each fatal engine panic — a body
// panic, a deadlock, a MaxCycles livelock, a panicking TieBreak hook —
// used to re-raise while every other CPU goroutine blocked forever on a
// grant that would never come. The drain must unwind and halt them all.
func TestEnginePanicDoesNotLeakGoroutines(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		spin := func(p *P) {
			for {
				p.Advance(1)
				p.Yield()
			}
		}
		cases := []struct {
			name string
			run  func()
		}{
			{"body panic", func() {
				e := mk(4)
				e.Run([]func(*P){func(p *P) { panic("boom") }, spin, spin, spin})
			}},
			{"body panic with waiters", func() {
				e := mk(4)
				block := func(p *P) { p.Block("held lock") }
				e.Run([]func(*P){block, block, block, func(p *P) {
					p.Advance(10)
					p.Yield()
					panic("boom")
				}})
			}},
			{"deadlock", func() {
				e := mk(4)
				block := func(p *P) { p.Block("forever") }
				e.Run([]func(*P){block, block, block, block})
			}},
			{"max cycles", func() {
				e := mk(4)
				e.MaxCycles = 100
				e.Run([]func(*P){spin, spin, spin, spin})
			}},
			{"tie-break hook panic at first pick", func() {
				e := mk(4)
				e.TieBreak = func(tied []int) int { panic("hook boom") }
				e.Run([]func(*P){spin, spin, spin, spin})
			}},
			{"tie-break hook panic mid-run", func() {
				e := mk(4)
				calls := 0
				e.TieBreak = func(tied []int) int {
					if calls++; calls > 3 {
						panic("hook boom")
					}
					return 0
				}
				e.Run([]func(*P){spin, spin, spin, spin})
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("expected an engine panic")
						}
					}()
					tc.run()
				}()
				// Drained goroutines exit just after their final handshake;
				// give the scheduler a moment before declaring a leak.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(deadline) {
						t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
					}
					runtime.Gosched()
				}
			})
		}
	})
}

// TestTieBreakHookPicksAmongTied: with a hook installed, a time-tie is
// resolved by the hook's index instead of the lowest-id default. Three
// CPUs all start at time 0; a pick-the-last hook must grant them in
// descending id order.
func TestTieBreakHookPicksAmongTied(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(3)
		e.TieBreak = func(tied []int) int { return len(tied) - 1 }
		var order []int
		body := func(p *P) {
			p.Yield()
			order = append(order, p.ID)
		}
		e.Run([]func(*P){body, body, body})
		if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
			t.Fatalf("grant order %v, want [2 1 0]", order)
		}
	})
}

// TestTieBreakReceivesAscendingIDs pins the hook's contract: it sees the
// tied CPU ids in ascending order, and only when more than one CPU is
// actually tied at the minimal ready time.
func TestTieBreakReceivesAscendingIDs(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(3)
		var calls [][]int
		e.TieBreak = func(tied []int) int {
			if len(tied) < 2 {
				t.Errorf("hook called with %d tied CPUs", len(tied))
			}
			for i := 1; i < len(tied); i++ {
				if tied[i] <= tied[i-1] {
					t.Errorf("tied ids not ascending: %v", tied)
				}
			}
			calls = append(calls, append([]int(nil), tied...))
			return 0
		}
		body := func(p *P) {
			p.Yield()
			p.Advance(uint64(p.ID + 1)) // desynchronize: no further ties
			p.Yield()
		}
		e.Run([]func(*P){body, body, body})
		if len(calls) == 0 {
			t.Fatal("hook never called despite the all-at-zero start")
		}
		if got := calls[0]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("first tie = %v, want [0 1 2]", got)
		}
	})
}

// TestTieBreakOutOfRangeFallsBack: a hook returning an out-of-range index
// must fall back to the documented default (lowest id), not panic or skew.
func TestTieBreakOutOfRangeFallsBack(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		for _, ret := range []int{-1, 99} {
			e := mk(3)
			e.TieBreak = func(tied []int) int { return ret }
			var order []int
			body := func(p *P) {
				p.Yield()
				order = append(order, p.ID)
			}
			e.Run([]func(*P){body, body, body})
			for i, id := range order {
				if id != i {
					t.Fatalf("hook returning %d: grant order %v, want [0 1 2]", ret, order)
				}
			}
		}
	})
}

// TestTieBreakNotCalledWithoutTie: a single ready CPU is granted without
// consulting the hook.
func TestTieBreakNotCalledWithoutTie(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(1)
		e.TieBreak = func(tied []int) int {
			t.Error("hook called with no tie possible")
			return 0
		}
		e.Run([]func(*P){func(p *P) {
			for i := 0; i < 5; i++ {
				p.Yield()
				p.Advance(1)
			}
		}})
	})
}

// TestTieBreakDeterministicReplay: a deterministic (seeded) hook keeps
// whole runs bit-reproducible — the property fuzz replay depends on. Two
// runs with the same hook seed must produce identical traces; a different
// seed must be able to produce a different one.
func TestTieBreakDeterministicReplay(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		run := func(seed uint64) string {
			e := mk(3)
			s := seed
			e.TieBreak = func(tied []int) int {
				// splitmix64 step: deterministic, stable across Go releases.
				s += 0x9e3779b97f4a7c15
				z := s
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				z ^= z >> 31
				return int(z % uint64(len(tied)))
			}
			var tr []string
			body := func(p *P) {
				for k := 0; k < 8; k++ {
					p.Yield()
					tr = append(tr, fmt.Sprintf("%d@%d", p.ID, p.Time()))
					p.Advance(1) // all CPUs stay tied: every grant consults the hook
				}
			}
			e.Run([]func(*P){body, body, body})
			return strings.Join(tr, ",")
		}
		if run(7) != run(7) {
			t.Fatal("same tie-break seed produced different traces")
		}
		if run(7) == run(8) {
			t.Fatal("different tie-break seeds never diverged (hook not consulted?)")
		}
	})
}

// TestDrainSkipsNeverGrantedBody: a CPU goroutine that was spawned but
// never granted before the engine panicked must not run its body during
// the drain.
func TestDrainSkipsNeverGrantedBody(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		e := mk(2)
		ran := false
		defer func() {
			if recover() == nil {
				t.Fatal("expected an engine panic")
			}
			if ran {
				t.Fatal("drain ran a never-granted body")
			}
		}()
		e.Run([]func(*P){
			func(p *P) { panic("boom") }, // granted first (same time, lower id)
			func(p *P) { ran = true },
		})
	})
}

// BenchmarkHandoff measures one context switch under each scheduler: n
// CPUs each Advance(1) and Yield in lockstep, so every Yield loses to a
// CPU with a lower time and takes the slow path. ns/op is per switch.
func BenchmarkHandoff(b *testing.B) {
	for _, s := range Scheds() {
		for _, n := range []int{8, 256} {
			b.Run(fmt.Sprintf("%s/cpus=%d", s, n), func(b *testing.B) {
				rounds := b.N/n + 1
				bodies := make([]func(*P), n)
				for i := range bodies {
					bodies[i] = func(p *P) {
						for k := 0; k < rounds; k++ {
							p.Advance(1)
							p.Yield()
						}
					}
				}
				e := NewEngineSched(n, s)
				b.ResetTimer()
				e.Run(bodies)
			})
		}
	}
}
