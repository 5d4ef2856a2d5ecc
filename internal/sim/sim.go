// Package sim implements the deterministic execution-driven simulation
// engine underneath the HTM chip-multiprocessor model.
//
// Each simulated CPU executes real Go code (the workload) against the
// simulated machine. The engine runs exactly one CPU at a time, always
// the one with the smallest local time (ties broken by CPU id), so every
// run is bit-reproducible and all simulator state is mutated race-free
// without locks.
//
// Protocol: a CPU calls Yield before every operation that touches shared
// simulator state (memory, caches, the bus, other CPUs' violation
// masks). Yield hands control back to the scheduler, which re-grants the
// CPU when it is again the earliest runner. After Yield returns, the CPU
// performs the operation's effects at its current local time and charges
// the operation's latency with Advance. Pure compute is charged with
// Advance alone (CPI = 1 in the paper's model, so one instruction = one
// cycle).
//
// Blocking (waiting for the commit token, a parked software thread, a
// stalled conflicting access) uses Block/Unblock: a blocked CPU is
// skipped by the scheduler until another CPU unblocks it at a given wake
// time.
//
// Two scheduler implementations share this contract and are selected by
// NewEngineSched:
//
//   - SchedEventLoop (the default): a calendar-queue event loop. Each
//     CPU body runs in an iter.Pull coroutine (it must suspend
//     mid-body), and Run drives them: it takes the next runner from an
//     O(1)-amortized bucketed time wheel (calendar.go) instead of an
//     O(n) scan and resumes it, one direct coroutine switch each way —
//     no scheduler run queue, no channel. See eventloop.go.
//
//   - SchedGoroutine: the legacy engine — a central scheduler goroutine
//     granting one CPU per rendezvous. Kept for one release as a
//     differential oracle; the equivalence suites assert both schedulers
//     produce byte-identical output. See goroutine.go.
//
// Both engines implement the same documented scheduling rule, consult
// TieBreak at the same decision points with the same tied sets, and
// raise identical panic values for deadlock, MaxCycles, and body
// panics, so simulated cycle counts are bit-identical between them.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// State is the scheduling state of a simulated CPU.
type State int

const (
	// Ready means the CPU can be granted when its time is the minimum.
	Ready State = iota
	// Waiting means the CPU is blocked until another CPU unblocks it.
	Waiting
	// Halted means the CPU's program has returned.
	Halted
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Waiting:
		return "waiting"
	case Halted:
		return "halted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Sched selects the scheduler implementation backing an Engine.
type Sched int

const (
	// SchedEventLoop is the calendar-queue event loop (the default).
	SchedEventLoop Sched = iota
	// SchedGoroutine is the legacy central-scheduler-goroutine engine,
	// kept for one release as the differential-testing oracle.
	SchedGoroutine
)

func (s Sched) String() string {
	switch s {
	case SchedEventLoop:
		return "eventloop"
	case SchedGoroutine:
		return "goroutine"
	}
	return fmt.Sprintf("sched(%d)", int(s))
}

// ParseSched maps a scheduler name to its Sched value. The empty string
// selects the default (event loop).
func ParseSched(name string) (Sched, error) {
	switch name {
	case "", "event", "eventloop":
		return SchedEventLoop, nil
	case "goroutine":
		return SchedGoroutine, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (want eventloop or goroutine)", name)
}

// Scheds lists both scheduler implementations, for differential tests.
func Scheds() []Sched { return []Sched{SchedEventLoop, SchedGoroutine} }

// P is one simulated CPU as seen by the engine: an id, a local clock, and
// the execution context that runs its body.
type P struct {
	// ID is the CPU number, stable for the life of the engine.
	ID int

	eng   *Engine
	time  uint64
	state State
	// waitReason documents why the CPU is blocked, for deadlock reports.
	waitReason string
	// started records whether a body was attached by Run.
	started bool

	// Event-loop coroutine (eventloop.go): resume runs the body until it
	// gives control back (ok is false once it has returned), stop unwinds
	// it, and yield, called by the body, gives control back.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// Legacy goroutine engine (goroutine.go): the rendezvous channel that
	// grants the CPU execution.
	grant chan struct{}
}

// Engine is the deterministic scheduler for a fixed set of CPUs.
type Engine struct {
	sched Sched
	procs []*P
	// now is the local time of the currently granted CPU; between grants it
	// is the time of the last grant.
	now uint64
	// MaxCycles, when non-zero, bounds simulated time; exceeding it panics,
	// which catches livelock bugs in tests. Zero means unlimited.
	MaxCycles uint64
	// TieBreak, when non-nil, chooses which CPU runs when several are tied
	// at the minimal ready time: it receives the tied CPU ids in ascending
	// order and returns an index into that slice (out-of-range values fall
	// back to the default, lowest id). A deterministic TieBreak keeps runs
	// bit-reproducible while perturbing the interleaving — the fuzzer uses
	// it to explore schedules the default ordering would never produce.
	TieBreak func(tied []int) int
	tied     []int // reusable buffer for TieBreak
	running  bool
	// poisoned is set when the engine hits a fatal condition (body panic,
	// deadlock, MaxCycles): the remaining CPUs are released one last time
	// and unwind via a poisonedEngine panic instead of running on.
	poisoned bool

	// Legacy goroutine engine (goroutine.go).
	step chan stepMsg

	// Event-loop engine (eventloop.go, calendar.go).
	cal calendar
}

// poisonedEngine is the panic value that unwinds surviving CPUs after the
// engine itself hit a fatal condition; the engine discards it.
// Application code must re-raise it like any foreign panic value.
type poisonedEngine struct{}

func (poisonedEngine) String() string { return "sim: engine poisoned" }

// stepMsg is sent by a CPU goroutine each time it returns control to the
// legacy scheduler goroutine.
type stepMsg struct {
	id    int
	panic any // non-nil if the body panicked; re-raised by the engine
}

// NewEngine creates an engine with n CPUs, all at time zero, using the
// default (event-loop) scheduler.
func NewEngine(n int) *Engine { return NewEngineSched(n, SchedEventLoop) }

// NewEngineSched creates an engine with n CPUs using the given scheduler
// implementation.
func NewEngineSched(n int, sched Sched) *Engine {
	e := &Engine{sched: sched, procs: make([]*P, n)}
	ps := make([]P, n)
	for i := range ps {
		ps[i] = P{ID: i, eng: e}
		if sched == SchedGoroutine {
			ps[i].grant = make(chan struct{})
		}
		e.procs[i] = &ps[i]
	}
	if sched == SchedGoroutine {
		e.step = make(chan stepMsg)
	}
	return e
}

// Sched reports which scheduler implementation backs the engine.
func (e *Engine) Sched() Sched { return e.sched }

// NumProcs returns the number of CPUs.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns CPU i.
func (e *Engine) Proc(i int) *P { return e.procs[i] }

// Now returns the engine's current time: the local time of the most
// recently granted CPU.
func (e *Engine) Now() uint64 { return e.now }

// Time returns the CPU's local clock: the cycle at which its next
// operation will execute.
func (p *P) Time() uint64 { return p.time }

// State returns the scheduling state, for tests and deadlock diagnostics.
func (p *P) State() State { return p.state }

// Advance charges n cycles of latency to the CPU's local clock.
func (p *P) Advance(n uint64) { p.time += n }

// Yield returns control to the engine and blocks until the CPU is again
// the earliest ready runner. Call it before every operation that touches
// shared simulator state.
//
// Fast path (both schedulers): when the caller would be re-granted
// immediately — it is still the unique earliest ready runner under the
// documented rule — the context switch is skipped entirely. The check
// reproduces the slow path's decision exactly, so the schedule, and
// therefore every simulated cycle count, is bit-identical with and
// without it. The slow path is kept for ties under an installed TieBreak
// hook and for the MaxCycles/poison exits, which must unwind through the
// engine.
func (p *P) Yield() {
	if p.eng.sched == SchedEventLoop {
		p.eng.yieldEvent(p)
		return
	}
	if p.eng.poisoned {
		panic(poisonedEngine{})
	}
	if p.eng.yieldFast(p) {
		return
	}
	p.eng.step <- stepMsg{id: p.ID}
	<-p.grant
	if p.eng.poisoned {
		panic(poisonedEngine{})
	}
}

// Block marks the CPU as waiting (with a human-readable reason for
// deadlock reports) and yields. It returns only after another CPU calls
// Unblock on it. Callers must re-check their wait condition on return:
// wakeups follow the unblocker's protocol, not the engine's.
func (p *P) Block(reason string) {
	if p.eng.sched == SchedEventLoop {
		p.eng.blockEvent(p, reason)
		return
	}
	if p.eng.poisoned {
		panic(poisonedEngine{})
	}
	p.state = Waiting
	p.waitReason = reason
	p.eng.step <- stepMsg{id: p.ID}
	<-p.grant
	if p.eng.poisoned {
		panic(poisonedEngine{})
	}
}

// Unblock makes a waiting CPU ready again, no earlier than cycle at.
// It must be called by the currently running CPU (or before Run starts).
func (p *P) Unblock(at uint64) {
	if p.state != Waiting {
		panic(fmt.Sprintf("sim: Unblock of CPU %d in state %v", p.ID, p.state))
	}
	p.state = Ready
	p.waitReason = ""
	if p.time < at {
		p.time = at
	}
	if p.eng.sched == SchedEventLoop && p.eng.running && !p.eng.poisoned {
		p.eng.cal.insert(p)
	}
}

// Run executes one body per CPU until every CPU halts. bodies may be
// shorter than the number of CPUs; the extras halt immediately. Run panics
// if the CPUs deadlock (all non-halted CPUs are waiting) or if a body
// panics (the panic is re-raised with CPU context), or if MaxCycles is
// exceeded. Whatever the fatal condition — including a panic raised by a
// TieBreak hook — every CPU goroutine is unwound before Run re-raises, so
// a recovered Run never leaks parked goroutines. Under the event loop a
// body that calls runtime.Goexit (as t.Fatal does) ends the run the same
// way: the other CPUs are unwound, then Run's caller Goexits.
func (e *Engine) Run(bodies []func(*P)) {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.sched == SchedEventLoop {
		e.runEvent(bodies)
	} else {
		e.runGoroutine(bodies)
	}
}

// describeWaiters formats the blocked CPUs for the deadlock panic.
func (e *Engine) describeWaiters() string {
	var parts []string
	for _, p := range e.procs {
		if p.state == Waiting {
			parts = append(parts, fmt.Sprintf("CPU %d waiting on %q since t<=%d", p.ID, p.waitReason, p.time))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no waiting CPUs (engine bug)"
	}
	return strings.Join(parts, "; ")
}
