//go:build go1.23

// The calendar-queue event-loop scheduler (the default).
//
// Each CPU body runs in its own coroutine (iter.Pull), and Run is the
// driver: it pops the next CPU from the calendar queue, sets Now, checks
// MaxCycles and resumes that CPU until it gives control back, repeating
// until every CPU halts. A resume and a give-back are one
// runtime.coroswitch each, which hands the thread straight to the target
// goroutine: no run queue, no channel, no idle P woken. iter.Pull
// declares a happens-before edge across every switch, so all CPUs'
// memory accesses are ordered through the driver and the engine remains
// race-detector-clean without locks.
//
// State transitions (at the legacy engine's decision points exactly):
//
//	Yield fast: queue minimum would lose to the caller → keep running.
//	Yield slow: insert self, give control back to the driver.
//	Block:      mark Waiting (not queued), give control back.
//	Unblock:    mark Ready at the wake time and insert into the queue.
//	Halt:       the body returned; the driver pops the next CPU, or
//	            finishes the run when this was the last live CPU. An
//	            empty queue with CPUs still live is a deadlock.
//
// Fatal conditions (deadlock, MaxCycles, body panic, a panicking
// TieBreak hook, a body's runtime.Goexit) poison the engine: on its way
// out the driver stops every coroutine, so each pending give-back
// returns false and unwinds its body with poisonedEngine, and a body
// that never started never runs. Only then does the panic (or the
// Goexit, which iter.Pull carries out of the resume) reach Run's caller,
// so a recovered Run never leaks a CPU goroutine.
//
// The go1.23 constraint gives this file, the only one importing iter,
// the language version iter.Pull needs while go.mod stays at go 1.22.
package sim

import (
	"fmt"
	"iter"
)

// runEvent is Run for the event-loop scheduler: the driver.
func (e *Engine) runEvent(bodies []func(*P)) {
	e.cal.init(len(e.procs))
	live := 0
	for i, p := range e.procs {
		var body func(*P)
		if i < len(bodies) {
			body = bodies[i]
		}
		if body == nil || p.started {
			p.state = Halted
			continue
		}
		p.started = true
		p.resume, p.stop = iter.Pull(e.context(p, body))
		e.cal.insert(p)
		live++
	}
	defer func() {
		if live == 0 {
			return
		}
		// The run is ending early (a panic or a body's Goexit is passing
		// through): unwind every context before it reaches the caller.
		e.poisoned = true
		for _, p := range e.procs {
			if p.started && p.state != Halted {
				p.stop()
				p.state = Halted
			}
		}
	}()
	for live > 0 {
		next := e.popNext()
		if next == nil {
			panic("sim: deadlock: " + e.describeWaiters())
		}
		e.now = next.time
		if e.MaxCycles != 0 && e.now > e.MaxCycles {
			panic(fmt.Sprintf("sim: exceeded MaxCycles=%d (livelock?)", e.MaxCycles))
		}
		if _, ok := next.resume(); !ok {
			live--
		}
	}
}

// context wraps CPU p's body as the coroutine the driver resumes. A body
// panic becomes the run's verdict, raised out of the driver's resume; a
// panic while the engine is poisoned is the body unwinding and is
// dropped.
func (e *Engine) context(p *P, body func(*P)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = Halted
			if r := recover(); r != nil && !e.poisoned {
				panic(fmt.Errorf("sim: CPU %d panicked at cycle %d: %v", p.ID, p.time, r))
			}
		}()
		body(p)
	}
}

// suspend gives control back to the driver until it resumes p. A false
// return from yield means the driver stopped p's coroutine: unwind.
func (p *P) suspend() {
	if !p.yield(struct{}{}) {
		panic(poisonedEngine{})
	}
}

// yieldEvent is Yield for the event loop; p is the running CPU.
func (e *Engine) yieldEvent(p *P) {
	if e.poisoned {
		panic(poisonedEngine{})
	}
	if !e.running {
		panic(fmt.Sprintf("sim: Yield by CPU %d outside Run", p.ID))
	}
	// Fast path: reproduce the legacy yieldFast decision from the queue
	// minimum alone. The queue holds exactly the ready non-running CPUs,
	// so min q loses to p iff no ready CPU beats p under (time, id) —
	// unless they are tied and a TieBreak hook must be consulted.
	if e.MaxCycles == 0 || p.time <= e.MaxCycles {
		q := e.cal.peek()
		if q == nil || q.time > p.time || (q.time == p.time && e.TieBreak == nil && q.ID > p.ID) {
			e.now = p.time
			return
		}
	}
	e.cal.insert(p)
	p.suspend()
}

// blockEvent is Block for the event loop; p is the running CPU.
func (e *Engine) blockEvent(p *P, reason string) {
	if e.poisoned {
		panic(poisonedEngine{})
	}
	if !e.running {
		panic(fmt.Sprintf("sim: Block by CPU %d outside Run", p.ID))
	}
	p.state = Waiting
	p.waitReason = reason
	p.suspend()
}

// popNext removes and returns the next CPU to run under the documented
// rule — earliest time, lowest id, TieBreak hook among ties — or nil
// when the queue is empty.
func (e *Engine) popNext() *P {
	best := e.cal.peek()
	if best == nil {
		return nil
	}
	if e.TieBreak != nil {
		// Every time-tied entry shares best's bucket; collect their ids in
		// ascending order, matching the legacy scheduler's hook contract.
		e.tied = e.tied[:0]
		d := best.time >> calShift
		for _, q := range e.cal.buckets[d&e.cal.mask] {
			if q.time == best.time {
				e.tied = append(e.tied, q.ID)
			}
		}
		if len(e.tied) > 1 {
			sortIDs(e.tied)
			if pick := e.TieBreak(e.tied); pick >= 0 && pick < len(e.tied) {
				// A tied non-minimum pick leaves the cached minimum queued
				// and still minimal; remove below only invalidates the cache
				// when the minimum itself is taken.
				best = e.procs[e.tied[pick]]
			}
		}
	}
	e.cal.remove(best)
	return best
}

// sortIDs sorts a small id slice ascending (insertion sort: tied sets
// are tiny and this avoids sort.Ints in the scheduling hot path).
func sortIDs(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
