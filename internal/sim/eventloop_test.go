package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// --- calendar queue unit tests -------------------------------------------

func calProcs(times ...uint64) []*P {
	ps := make([]*P, len(times))
	for i, tm := range times {
		ps[i] = &P{ID: i, time: tm}
	}
	return ps
}

// TestCalendarOrdersByTimeThenID drains a populated queue and requires
// strict (time, id) order.
func TestCalendarOrdersByTimeThenID(t *testing.T) {
	var c calendar
	c.init(4)
	ps := calProcs(50, 3, 50, 3, 1000)
	for _, p := range ps {
		c.insert(p)
	}
	want := []int{1, 3, 0, 2, 4} // times 3,3,50,50,1000; ties by id
	for i, w := range want {
		m := c.peek()
		if m == nil || m.ID != w {
			t.Fatalf("pop %d: got %v, want CPU %d", i, m, w)
		}
		c.remove(m)
	}
	if c.peek() != nil || c.n != 0 {
		t.Fatalf("queue not empty after draining: n=%d", c.n)
	}
}

// TestCalendarWrapAround: entries more than one wheel revolution apart
// share buckets; the day check must keep far-future entries out of early
// scans, and the fallback must find them once the near ones are gone.
func TestCalendarWrapAround(t *testing.T) {
	var c calendar
	c.init(4)
	span := uint64(len(make([]int, calMinBuckets))) << calShift // wheel span in cycles
	ps := calProcs(7, 7+span, 7+3*span, 2)
	for _, p := range ps {
		c.insert(p)
	}
	want := []int{3, 0, 1, 2}
	for i, w := range want {
		m := c.peek()
		if m == nil || m.ID != w {
			t.Fatalf("pop %d: got %v, want CPU %d", i, m, w)
		}
		c.remove(m)
	}
}

// TestCalendarFarFutureFallback: when every entry is beyond a full
// revolution of lowDay, peek must still find the true minimum (the
// direct-scan fallback) and subsequent peeks must be cheap (lowDay
// jumped).
func TestCalendarFarFutureFallback(t *testing.T) {
	var c calendar
	c.init(4)
	near := calProcs(1)[0]
	c.insert(near)
	if c.peek() != near {
		t.Fatal("near entry not found")
	}
	c.remove(near)
	// lowDay is now pinned at day 0; insert only far-future entries.
	span := uint64(calMinBuckets) << calShift
	far := calProcs(10*span+5, 10*span+3)
	// insert resets lowDay only when the queue was empty — simulate the
	// stale-lowDay case by inserting, then forcing lowDay back down.
	for _, p := range far {
		c.insert(p)
	}
	c.lowDay = 0
	c.min = nil
	if m := c.peek(); m != far[1] {
		t.Fatalf("fallback found %v, want CPU 1", m)
	}
	if c.lowDay != far[1].time>>calShift {
		t.Fatalf("lowDay = %d, want jump to %d", c.lowDay, far[1].time>>calShift)
	}
}

// TestCalendarRemoveNonMinKeepsMinValid: removing a tied non-minimum
// entry must not disturb the cached minimum (the TieBreak pop path).
func TestCalendarRemoveNonMinKeepsMinValid(t *testing.T) {
	var c calendar
	c.init(4)
	ps := calProcs(9, 9, 9)
	for _, p := range ps {
		c.insert(p)
	}
	if m := c.peek(); m != ps[0] {
		t.Fatalf("min = %v, want CPU 0", m)
	}
	c.remove(ps[2]) // TieBreak picked a non-minimum tied entry
	if m := c.peek(); m != ps[0] {
		t.Fatalf("min after tied removal = %v, want CPU 0", m)
	}
	c.remove(ps[0]) // now the minimum itself
	if m := c.peek(); m != ps[1] {
		t.Fatalf("min after min removal = %v, want CPU 1", m)
	}
}

// --- scheduler edge semantics, pinned for both engines -------------------

// TestSimultaneousWakeupTieBreak: two CPUs unblocked at the same wake
// cycle are granted in id order by default, and through the TieBreak hook
// (which must see both) when installed.
func TestSimultaneousWakeupTieBreak(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		run := func(tb func([]int) int) (order []int, ties [][]int) {
			e := mk(3)
			if tb != nil {
				e.TieBreak = func(tied []int) int {
					ties = append(ties, append([]int(nil), tied...))
					return tb(tied)
				}
			}
			sleeper := func(p *P) {
				p.Block("nap")
				order = append(order, p.ID)
			}
			waker := func(p *P) {
				p.Advance(40)
				p.Yield()
				// Both sleepers wake at the same cycle, in one grant window.
				e.Proc(0).Unblock(77)
				e.Proc(1).Unblock(77)
			}
			e.Run([]func(*P){sleeper, sleeper, waker})
			return order, ties
		}

		order, _ := run(nil)
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("default wake order %v, want [0 1]", order)
		}
		order, ties := run(func(tied []int) int { return len(tied) - 1 })
		if len(order) != 2 || order[0] != 1 || order[1] != 0 {
			t.Fatalf("hooked wake order %v, want [1 0]", order)
		}
		sawPair := false
		for _, tie := range ties {
			if len(tie) == 2 && tie[0] == 0 && tie[1] == 1 {
				sawPair = true
			}
		}
		if !sawPair {
			t.Fatalf("hook never saw the simultaneous wakeup pair; ties: %v", ties)
		}
	})
}

// TestMaxCyclesCutoffMidStall: the cycle budget expires while one CPU is
// parked in Block. The run must end with the MaxCycles panic (not a
// deadlock report), and the parked CPU must be drained — halted, no
// goroutine left behind.
func TestMaxCyclesCutoffMidStall(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		before := runtime.NumGoroutine()
		var e *Engine
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "MaxCycles") {
					t.Fatalf("want MaxCycles panic, got %v", r)
				}
			}()
			e = mk(2)
			e.MaxCycles = 500
			e.Run([]func(*P){
				func(p *P) { p.Block("stalled on validated transaction") },
				func(p *P) {
					for {
						p.Advance(10)
						p.Yield()
					}
				},
			})
		}()
		for i := 0; i < 2; i++ {
			if e.Proc(i).State() != Halted {
				t.Fatalf("CPU %d not halted after MaxCycles drain: %v", i, e.Proc(i).State())
			}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
			}
			runtime.Gosched()
		}
	})
}

// TestDrainAtEveryGrantWindow is the regression test for the poison-drain
// path: a 4-CPU program (with one CPU parked in Block for most of the
// run) is re-executed with a panic injected at every successive grant
// window — body entry, each Yield return, each Block return. Whichever
// window the panic fires in, the engine must report it, halt every CPU
// (including the one parked in Block between its grant and the fatal
// step), and leak no goroutine.
func TestDrainAtEveryGrantWindow(t *testing.T) {
	forEachSched(t, func(t *testing.T, mk func(n int) *Engine) {
		var fired bool
		var e *Engine
		// run's effects are observed through the captured fired/e: the
		// injected panic unwinds straight past any return values.
		run := func(boomAt int) {
			window := 0
			step := func() {
				window++
				if window == boomAt {
					fired = true
					panic("injected")
				}
			}
			e = mk(4)
			bodies := []func(*P){
				func(p *P) { // parked for most of the run
					step()
					p.Block("parked waiting for CPU 3")
					step()
				},
				func(p *P) {
					step()
					for k := 0; k < 5; k++ {
						p.Advance(3)
						p.Yield()
						step()
					}
				},
				func(p *P) {
					step()
					for k := 0; k < 5; k++ {
						p.Advance(5)
						p.Yield()
						step()
					}
				},
				func(p *P) {
					step()
					p.Advance(50)
					p.Yield()
					step()
					e.Proc(0).Unblock(p.Time())
				},
			}
			e.Run(bodies)
		}

		for boomAt := 1; ; boomAt++ {
			before := runtime.NumGoroutine()
			fired, e = false, nil
			panicked := func() (panicked bool) {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				run(boomAt)
				return false
			}()
			if fired != panicked {
				t.Fatalf("window %d: injected panic fired=%v but Run panicked=%v", boomAt, fired, panicked)
			}
			for i := 0; i < 4; i++ {
				if e.Proc(i).State() != Halted {
					t.Fatalf("window %d: CPU %d left in state %v", boomAt, i, e.Proc(i).State())
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("window %d: leaked goroutines: %d before, %d after",
						boomAt, before, runtime.NumGoroutine())
				}
				runtime.Gosched()
			}
			if !fired {
				// The program completed before reaching this window: every
				// grant window has been covered.
				break
			}
		}
	})
}

// --- differential equivalence at the engine level ------------------------

// diffTrace runs a deterministic 4-CPU program — three workers with
// seed-derived latencies that park themselves periodically, one waker
// that keeps unblocking them until they halt — and returns the full
// execution trace. Both schedulers must produce identical strings.
func diffTrace(sched Sched, seed uint64, lat [3][]uint8) string {
	e := NewEngineSched(4, sched)
	s := seed
	e.TieBreak = func(tied []int) int {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int(z % uint64(len(tied)))
	}
	var tr []string
	shared := uint64(0)
	record := func(p *P, what string) {
		shared = shared*31 + uint64(p.ID)
		tr = append(tr, fmt.Sprintf("%s%d@%d:%d", what, p.ID, p.Time(), shared))
	}
	worker := func(id int) func(*P) {
		return func(p *P) {
			for k, l := range lat[id] {
				p.Yield()
				record(p, "y")
				p.Advance(uint64(l%13) + 1)
				if k%3 == 2 {
					p.Block("worker pause")
					record(p, "w")
				}
			}
		}
	}
	waker := func(p *P) {
		for {
			halted := true
			for i := 0; i < 3; i++ {
				if e.Proc(i).State() != Halted {
					halted = false
				}
				if e.Proc(i).State() == Waiting {
					e.Proc(i).Unblock(p.Time())
					record(p, "u")
				}
			}
			if halted {
				return
			}
			p.Advance(2)
			p.Yield()
		}
	}
	e.Run([]func(*P){worker(0), worker(1), worker(2), waker})
	return strings.Join(tr, ",")
}

// TestSchedulersProduceIdenticalTraces is the engine-level differential
// gate: across random latency programs (with blocking, simultaneous
// wakeups, and a seeded TieBreak hook all in play), the event loop and
// the legacy goroutine scheduler must produce byte-identical traces.
func TestSchedulersProduceIdenticalTraces(t *testing.T) {
	f := func(seed uint64, lat [3][]uint8) bool {
		return diffTrace(SchedEventLoop, seed, lat) == diffTrace(SchedGoroutine, seed, lat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestYieldOutsideRunPanics: the event loop turns the legacy engine's
// silent hang (a Yield with no scheduler goroutine to hear it) into an
// immediate diagnostic.
func TestYieldOutsideRunPanics(t *testing.T) {
	e := NewEngine(1)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"yield", func() { e.Proc(0).Yield() }},
		{"block", func() { e.Proc(0).Block("nothing") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside Run") {
					t.Fatalf("want outside-Run panic, got %v", r)
				}
			}()
			tc.call()
		})
	}
}

// --- coroutine edge cases --------------------------------------------------

// waitNoLeak fails the test unless the goroutine count falls back to
// before: stopped contexts exit just after their final switch.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestBodyGoexitStopsOtherContexts: a body that calls runtime.Goexit, as
// t.Fatal does, ends the run. Every other context — running, parked in
// Block, never started — is stopped first, and only then does Run's
// caller Goexit in turn, with every CPU Halted and no goroutine left.
// Treating the Goexit as a normal halt would run the other CPUs on.
func TestBodyGoexitStopsOtherContexts(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(5)
	var (
		finished [5]bool
		states   [5]State
		returned bool
		rec      any
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			rec = recover()
			for i := range states {
				states[i] = e.Proc(i).State()
			}
		}()
		loop := func(p *P) {
			for k := 0; k < 50; k++ {
				p.Advance(1)
				p.Yield()
			}
			finished[p.ID] = true
		}
		e.Run([]func(*P){
			loop,
			func(p *P) { p.Block("never woken") },
			func(p *P) {
				p.Advance(10)
				p.Yield()
				runtime.Goexit()
			},
			loop,
			func(p *P) {
				p.Advance(1000) // still unstarted when CPU 2 exits
				p.Yield()
				finished[p.ID] = true
			},
		})
		returned = true
	}()
	<-done
	if rec != nil {
		t.Fatalf("Run panicked instead of passing the Goexit on: %v", rec)
	}
	if returned {
		t.Fatal("Run returned normally after a body's Goexit")
	}
	for i, s := range states {
		if s != Halted {
			t.Errorf("CPU %d in state %v when Run's caller exited", i, s)
		}
		if finished[i] {
			t.Errorf("CPU %d ran to completion after CPU 2's Goexit", i)
		}
	}
	waitNoLeak(t, before)
}

// TestTieBreakPanicReraised: a panicking TieBreak hook, on the initial
// pick or mid-run, reaches Run's caller with its own value, after every
// context has been stopped.
func TestTieBreakPanicReraised(t *testing.T) {
	spin := func(p *P) {
		for {
			p.Advance(1)
			p.Yield()
		}
	}
	for _, tc := range []struct {
		name  string
		after int // hook calls that succeed before it panics
	}{{"initial pick", 0}, {"mid-run", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(4)
			calls := 0
			e.TieBreak = func(tied []int) int {
				if calls++; calls > tc.after {
					panic("hook boom")
				}
				return 0
			}
			r := func() (r any) {
				defer func() { r = recover() }()
				e.Run([]func(*P){spin, spin, spin, spin})
				return nil
			}()
			if r != "hook boom" {
				t.Fatalf("Run raised %v, want the hook's own value", r)
			}
			for i := 0; i < 4; i++ {
				if s := e.Proc(i).State(); s != Halted {
					t.Errorf("CPU %d left in state %v", i, s)
				}
			}
			waitNoLeak(t, before)
		})
	}
}
