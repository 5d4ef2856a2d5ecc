package core

import (
	"fmt"

	"tmisa/internal/cache"
	"tmisa/internal/mem"
	"tmisa/internal/sim"
	"tmisa/internal/stats"
	"tmisa/internal/tm"
	"tmisa/internal/trace"
)

// Proc is one simulated CPU as seen by programs: the memory instructions
// (transactional and immediate), the transaction-defining instructions
// (Atomic/AtomicOpen wrapping xbegin..xcommit), and the architected HTM
// state of Table 1.
type Proc struct {
	m    *Machine
	sp   *sim.P
	id   int
	hier *cache.Hierarchy
	c    stats.Counters

	// stack is the TCB stack (xtcbptr_base/xtcbptr_top); txs parallels it
	// with the software-visible handler state of each TCB frame.
	stack tm.Stack
	txs   []*Tx

	// scratch is the commit path's sort buffer (see sortedKeys), recs
	// violateOthers' per-victim record buffer.
	scratch []mem.Addr
	recs    []violRec

	// Violation state (Table 1): violQ holds the undelivered conflicts
	// (realizing xvaddr plus the xvcurrent/xvpending bitmasks — see
	// violRec); violReport is the reporting-enable flag toggled by
	// violation dispatch and xenviolrep.
	violQ      []violRec
	violReport bool

	// tokenDepth makes the commit token reentrant for open-nested commits
	// performed while the outermost transaction already validated.
	tokenDepth int

	// consecRollbacks drives the contention-management backoff.
	consecRollbacks int

	// rbCause is the conflict context of the unwind currently in flight
	// (set at every unwind panic site, read by rollbackLevel's emission).
	rbCause rbCause
	// unwinds caches one rollback unwind per target level (see
	// rollbackUnwind).
	unwinds []*unwind

	// stalled marks the CPU blocked on a validated conflicting transaction
	// (eager engine); stallWaiters are CPUs blocked on *this* CPU's commit.
	stalled      bool
	stallWaiters []*Proc

	// faults holds this CPU's slice of the fault-injection plan, ordered
	// by arming point; faultIdx is the next entry to fire.
	faults   []FaultViolation
	faultIdx int

	// sb is the store buffer of pending non-transactional stores under a
	// weak memory model (Config.MemModel; see weakmem.go), oldest first;
	// weak counts its activity. Both stay empty under the default SC model.
	sb   []sbEntry
	weak WeakCounters

	// seqMode suppresses all transactional bookkeeping; the sequential
	// baselines use it so they pay memory-system costs only.
	seqMode bool
	// untimed additionally suppresses all timing and engine interaction:
	// setup code uses it to drive simulated data structures (for example
	// pre-populating B-trees) before the machine runs.
	untimed bool
}

// BugCompatNonTxStore re-enables the pre-fix behaviour of the eager
// engine's non-transactional store — write memory first, violate the
// conflicting transactions after — under which a doomed victim's undo-log
// rollback restores the line and silently clobbers the committed store (a
// lost update), and a validated victim is never waited for at all.
// Regression tests set it to demonstrate the oracle catches the bug; it
// must never be set otherwise.
var BugCompatNonTxStore bool

func newProc(m *Machine, id int) *Proc {
	return &Proc{
		m:          m,
		sp:         m.eng.Proc(id),
		id:         id,
		hier:       cache.NewHierarchy(m.cfg.Cache),
		violReport: true,
		seqMode:    m.cfg.Sequential,
		faults:     m.cfg.Faults.forCPU(id),
	}
}

// ID returns the CPU number.
func (p *Proc) ID() int { return p.id }

// Now returns the CPU's local cycle count.
func (p *Proc) Now() uint64 { return p.sp.Time() }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Counters exposes this CPU's statistics (read-only use expected).
func (p *Proc) Counters() *stats.Counters { return &p.c }

// InTx reports whether the CPU is inside a transaction.
func (p *Proc) InTx() bool { return p.stack.Depth() > 0 }

// NestingLevel returns the current nesting depth (xstatus.NL).
func (p *Proc) NestingLevel() int { return p.stack.Depth() }

// step is the per-instruction boundary: it yields to the engine (so all
// shared-state effects are globally time-ordered), takes any pending
// violation (the "user-level exception" of Section 4.3), and charges n
// instructions at CPI = 1.
func (p *Proc) step(n int) {
	if p.untimed {
		return
	}
	if len(p.sb) > 0 {
		// Store-buffer drain decisions happen between instructions: each
		// boundary is a point where pending stores may become globally
		// visible (weakmem.go).
		p.sbPoll()
	}
	p.sp.Yield()
	if p.faultIdx < len(p.faults) {
		p.injectFaults()
	}
	p.deliver()
	p.c.Instructions += uint64(n)
	p.sp.Advance(uint64(n))
}

// Tick charges n instructions of non-memory computation. One Tick is a
// single simulation step: an atomic compute block that other CPUs cannot
// interleave with (its effects-at-grant-time land before the advance).
// Model interruptible computation by ticking in smaller chunks.
func (p *Proc) Tick(n int) {
	if n <= 0 {
		return
	}
	p.step(n)
}

// TickCycles advances local time by n cycles without retiring
// instructions (device occupancy, queueing delays).
func (p *Proc) TickCycles(n uint64) {
	if n == 0 || p.untimed {
		return
	}
	p.sp.Yield()
	p.deliver()
	p.sp.Advance(n)
}

// access runs one reference through the private hierarchy and the shared
// bus and charges its latency. nl is the hardware nesting level (0 for
// non-transactional and immediate accesses).
func (p *Proc) access(a mem.Addr, write bool, nl int) {
	if p.untimed {
		return
	}
	res := p.hier.Access(a, write, nl)
	lat := res.Latency
	if res.BusBytes > 0 {
		done := p.m.bus.Transfer(p.sp.Time()+lat, res.BusBytes)
		busLat := done - p.sp.Time()
		p.c.BusCycles += done - (p.sp.Time() + lat)
		lat = busLat
	}
	p.sp.Advance(lat)
	switch {
	case res.HitL1:
		p.c.L1Hits++
	case res.HitL2:
		p.c.L2Hits++
	default:
		p.c.Misses++
	}
	p.c.Overflow += uint64(res.Overflowed)
	p.c.Evicts += uint64(res.Evicted)
	if res.LazyFix {
		p.c.LazyMergeHits++
	}
	if res.CapacityAbort {
		// Bounded speculative capacity (Config.Cache.BoundedSpec): the
		// hardware cannot hold this transaction's footprint, so instead of
		// virtualizing it raises a capacity abort through the ordinary
		// violation path — a self-inflicted conflict against every active
		// level, delivered at the next instruction boundary. A validated
		// level shields it like any other violation (commit handlers run
		// to completion); otherwise the whole nest unwinds and the retry
		// policy in atomic decides between re-execution and fallback.
		p.c.CapacityAborts++
		if depth := p.stack.Depth(); depth > 0 {
			p.enqueueViolation(violRec{
				addr: p.hier.LineAddr(a),
				mask: (uint32(1) << depth) - 1,
				by:   -1,
				why:  causeCapacity,
			})
		}
	}
}

// line returns the conflict-detection granule of an address: a cache
// line, or a word under Config.WordTracking.
func (p *Proc) line(a mem.Addr) mem.Addr {
	if p.m.cfg.WordTracking {
		return mem.WordAlign(a)
	}
	return p.hier.LineAddr(a)
}

// Load performs a transactional load: the line joins the current
// transaction's read-set, and (lazy engine) the value reflects this nest's
// speculative writes. Outside a transaction it is an ordinary load.
func (p *Proc) Load(a mem.Addr) uint64 {
	p.step(1)
	p.c.Loads++
	word := mem.WordAlign(a)
	lvl := p.stack.Top()
	if p.seqMode || lvl == nil {
		if p.weakEnabled() {
			if v, ok := p.sbForward(word); ok {
				// Store-to-load forwarding: the newest pending same-word
				// store satisfies the load locally — no global access, no
				// memory-system latency beyond the issue slot.
				p.weak.Forwards++
				p.emitMem(trace.NtLoadFwd, 0, word, v)
				return v
			}
		}
		if !p.seqMode && p.m.cfg.Engine == Eager {
			// Strong atomicity: with in-place speculative data, a
			// non-transactional load must not observe an uncommitted
			// write. The coherence protocol stalls the load until the
			// writer commits or aborts (killing the writer from a plain
			// read would let pollers livelock writers).
			p.eagerResolve(p.line(a), false, false, causeNtLoad)
		}
		if !p.seqMode && p.m.cfg.Engine == Lazy && p.m.cfg.Fallback != NoFallback {
			// With the hybrid engine, a serial-fallback transaction writes
			// in place even on the lazy machine, so a non-transactional
			// load must wait out a validated in-place writer rather than
			// observe its uncommitted stores. Only writers matter: lazy
			// hardware transactions keep their writes buffered.
			p.waitValidatedConflictors(p.line(a), true)
		}
		p.access(a, false, 0)
		v := p.m.mem.Load(word)
		p.emitMem(trace.NtLoad, 0, word, v)
		return v
	}
	line := p.line(a)
	if p.m.cfg.Engine == Eager {
		p.eagerResolve(line, false, true, causeEagerLoad)
	}
	hwNL := lvl.NL
	switch lvl.Mode {
	case tm.Serial:
		// Fallback accesses are not tracked in the cache (hwNL 0): the
		// software path has an unbounded footprint and must not trip the
		// capacity bound it exists to escape. Conflict detection still
		// sees them through the level's read-/write-sets.
		hwNL = 0
		p.chargeInsn(CostSerialAccess)
	case tm.TL2:
		hwNL = 0
		p.chargeInsn(CostStmLoad)
	}
	p.access(a, false, hwNL)
	lvl.RecordRead(line)
	if p.m.cfg.Engine == Lazy {
		if v, ok := p.stack.LookupSpec(word); ok {
			p.emitMem(trace.TxLoad, lvl.NL, word, v)
			return v
		}
	}
	v := p.m.mem.Load(word)
	p.emitMem(trace.TxLoad, lvl.NL, word, v)
	return v
}

// Store performs a transactional store: buffered in the write-buffer
// (lazy) or written in place with an undo-log record (eager), with the
// line joining the write-set. Outside a transaction it is an ordinary
// store that still violates conflicting transactions (strong atomicity).
func (p *Proc) Store(a mem.Addr, v uint64) {
	p.step(1)
	p.c.Stores++
	word := mem.WordAlign(a)
	lvl := p.stack.Top()
	if p.seqMode || lvl == nil {
		if p.weakEnabled() {
			// Weak model: the store enters this CPU's buffer and performs
			// globally only when it drains (sbDrain runs the strong-atomicity
			// machinery below at that point).
			p.sbInsert(word, v)
			return
		}
		if !p.seqMode && p.m.cfg.Engine == Eager && !BugCompatNonTxStore {
			// Strong atomicity, eager engine: with in-place speculative
			// data the store must win the line like any other eager write
			// — violate active speculators and wait out validated or
			// doomed ones — *before* touching memory. Writing first and
			// violating after would let a doomed victim's undo-log restore
			// clobber this committed store (a lost update), and could
			// never displace a validated victim at all.
			p.eagerResolve(p.line(a), true, true, causeNtStore)
		}
		if !p.seqMode && p.m.cfg.Engine == Lazy && !BugCompatNonTxStore {
			// Strong atomicity, lazy engine, commit window: a validated
			// transaction can no longer be violated (Section 6.1), so a
			// conflicting non-transactional store must wait out its commit
			// and serialize after it. Storing first would let the commit's
			// write-buffer drain clobber this store — the same lost update
			// the eager engine had, through the other engine's window.
			p.waitValidatedConflictors(p.line(a), false)
		}
		p.access(a, true, 0)
		p.m.mem.Store(word, v)
		p.emitMem(trace.NtStore, 0, word, v)
		if !p.seqMode && (p.m.cfg.Engine == Lazy || BugCompatNonTxStore) {
			// Strong atomicity, lazy engine: speculative writes live in
			// write-buffers, so memory order is safe either way and
			// violating active speculators after the store suffices.
			p.violateOthers([]mem.Addr{p.line(a)}, nil, causeNtStore)
		}
		return
	}
	line := p.line(a)
	if p.m.cfg.Engine == Eager {
		p.eagerResolve(line, true, true, causeEagerStore)
	}
	hwNL := lvl.NL
	switch lvl.Mode {
	case tm.Serial:
		hwNL = 0
		p.chargeInsn(CostSerialAccess)
	case tm.TL2:
		hwNL = 0
		p.chargeInsn(CostStmStore)
	}
	p.access(a, true, hwNL)
	lvl.RecordWrite(line)
	switch {
	case lvl.Mode == tm.Serial:
		// Serial-irrevocable writes land in place on both engines; the
		// undo log exists only for an explicit Tx.Abort (no violation can
		// reach a serial level). No speculator can hold the line: the
		// lock acquisition killed every subscriber, and new transactions
		// cannot pass their lock subscription while it is held.
		lvl.LogUndo(word, p.m.mem.Load(word))
		p.m.mem.Store(word, v)
	case p.m.cfg.Engine == Lazy:
		lvl.BufferWrite(word, v)
	default:
		lvl.LogUndo(word, p.m.mem.Load(word))
		p.m.mem.Store(word, v)
	}
	p.emitMem(trace.TxStore, lvl.NL, word, v)
}

// LoadF and StoreF are float convenience wrappers over Load/Store.
func (p *Proc) LoadF(a mem.Addr) float64     { return mem.B2F(p.Load(a)) }
func (p *Proc) StoreF(a mem.Addr, f float64) { p.Store(a, mem.F2B(f)) }

// Imld is the immediate load (Table 2): a normal cached access that does
// not join the read-set and does not see speculative write-buffer state.
// Use it only for data the software can prove thread-private or read-only.
func (p *Proc) Imld(a mem.Addr) uint64 {
	p.step(1)
	p.sbFence() // immediate instructions are strongly ordered (weakmem.go)
	p.c.ImmediateOps++
	p.access(a, false, 0)
	word := mem.WordAlign(a)
	v := p.m.mem.Load(word)
	p.emitMem(trace.ImLoad, p.stack.Depth(), word, v)
	return v
}

// Imst is the immediate store: it updates memory immediately without
// joining the write-set, but keeps undo information so the store is still
// rolled back with the transaction.
func (p *Proc) Imst(a mem.Addr, v uint64) {
	p.step(1)
	p.sbFence() // immediate instructions are strongly ordered (weakmem.go)
	p.c.ImmediateOps++
	p.access(a, true, 0)
	word := mem.WordAlign(a)
	if lvl := p.stack.Top(); lvl != nil && !p.seqMode {
		lvl.LogUndo(word, p.m.mem.Load(word))
	}
	p.m.mem.Store(word, v)
	p.emitMem(trace.ImStore, p.stack.Depth(), word, v)
}

// Imstid is the idempotent immediate store: no write-set membership and no
// undo information; the store survives rollback.
func (p *Proc) Imstid(a mem.Addr, v uint64) {
	p.step(1)
	p.sbFence() // immediate instructions are strongly ordered (weakmem.go)
	p.c.ImmediateOps++
	p.access(a, true, 0)
	word := mem.WordAlign(a)
	p.m.mem.Store(word, v)
	p.emitMem(trace.ImStoreID, p.stack.Depth(), word, v)
}

// Release removes a's line from the current transaction's read-set (the
// early-release instruction). It is a no-op outside a transaction.
func (p *Proc) Release(a mem.Addr) {
	p.step(1)
	if lvl := p.stack.Top(); lvl != nil {
		lvl.Release(p.line(a))
		p.emitMem(trace.ReleaseEv, lvl.NL, p.line(a), 0)
	}
}

// Park blocks this CPU until another CPU calls UnparkProc on it; the
// software thread layer uses it for idle dispatch loops and waiting
// threads. Parking inside a transaction is a programming error.
func (p *Proc) Park(reason string) {
	if p.InTx() {
		panic(fmt.Sprintf("core: CPU %d parked inside a transaction", p.id))
	}
	// A parking CPU publishes its pending stores first: threads park after
	// producing work other CPUs will consume, so holding buffered stores
	// across the block would deadlock the consumer against a sleeping
	// producer.
	p.sbFence()
	p.sp.Block(reason)
	p.deliver()
}

// UnparkProc wakes a parked CPU at the caller's current time. It reports
// whether the CPU was actually blocked (a false result means the wake was
// stale or raced with another waker).
func (p *Proc) UnparkProc(q *Proc) bool {
	if q.sp.State() == sim.Waiting {
		q.sp.Unblock(p.sp.Time())
		return true
	}
	return false
}

// Parked reports whether q's CPU is blocked.
func (p *Proc) Parked() bool { return p.sp.State() == sim.Waiting }

// violateOthers raises violations on every other processor whose
// read-/write-sets intersect lines. except, when non-nil, is skipped
// (used for the committer itself). why is the cause kind attached to the
// conflict records for attribution. The line slice must be in a
// deterministic order; callers sort it.
func (p *Proc) violateOthers(lines []mem.Addr, except *Proc, why string) {
	if len(lines) == 0 {
		return
	}
	now := p.sp.Time()
	for _, q := range p.m.procs {
		if q == p || q == except {
			continue
		}
		// The victim's queue copies the records, so one buffer serves
		// every victim.
		recs := p.recs[:0]
		for _, l := range lines {
			if mask := q.stack.ConflictsWithLine(l, false); mask != 0 {
				recs = append(recs, violRec{addr: l, mask: mask, by: p.id, why: why})
			}
		}
		p.recs = recs
		if len(recs) > 0 {
			p.m.raiseViolation(q, recs, now)
		}
	}
}

// eagerResolve implements eager conflict detection for one access: a load
// conflicts with other processors' speculative writers; a store conflicts
// with their readers and writers. With kill set, active victims are
// violated (requester wins); without it (non-transactional reads under
// strong atomicity) the requester only waits. why is the cause kind
// attached to raised conflicts for attribution. Validated victims can
// never be violated (Section 6.1), so the requester stalls until they
// commit.
func (p *Proc) eagerResolve(line mem.Addr, isWrite, kill bool, why string) {
	for {
		anyConflict := false
		stalledOn := (*Proc)(nil)
		for _, q := range p.m.procs {
			if q == p {
				continue
			}
			mask := q.stack.ConflictsWithLine(line, !isWrite)
			if mask == 0 {
				continue
			}
			anyConflict = true
			if q.hasValidatedLevel(mask) {
				stalledOn = q
				break
			}
			if kill {
				p.m.raiseViolation(q, []violRec{{addr: line, mask: mask, by: p.id, why: why}}, p.sp.Time())
			}
		}
		if !anyConflict {
			return
		}
		if stalledOn != nil {
			start := p.sp.Time()
			stalledOn.stallWaiters = append(stalledOn.stallWaiters, p)
			p.stalled = true
			p.sp.Block("stalled on validated transaction")
			p.stalled = false
			// De-register no matter why we woke — the stallee's commit or a
			// violation of our own. A stale entry left behind would let that
			// CPU's next commit yank us out of an unrelated Park later.
			removeStallWaiter(stalledOn, p)
			p.c.StallCycles += p.sp.Time() - start
		} else {
			// The victims are doomed but have not rolled back yet; with
			// in-place speculative data we must not touch the line until
			// their undo-log restores it. Spin a cycle at a time (this is
			// the coherence-protocol NACK window of eager HTMs).
			p.c.StallCycles++
			p.sp.Advance(1)
			p.sp.Yield()
		}
		p.deliver() // we may have been violated while stalled
	}
}

// waitValidatedConflictors blocks until no other processor holds line in
// a validated level's read- or write-set (write-set only with
// writersOnly). Used by non-transactional stores under the lazy engine —
// a validated transaction owns its commit window, so the store must
// serialize after it — and by non-transactional loads under the hybrid
// engine, which must wait out a serial fallback's in-place writes
// (writersOnly: buffered readers cannot leak anything to a load). The
// caller is outside any transaction, so no violation can redirect the
// wait.
func (p *Proc) waitValidatedConflictors(line mem.Addr, writersOnly bool) {
	for {
		var stalledOn *Proc
		for _, q := range p.m.procs {
			if q == p {
				continue
			}
			mask := q.stack.ConflictsWithLine(line, writersOnly)
			if mask != 0 && q.hasValidatedLevel(mask) {
				stalledOn = q
				break
			}
		}
		if stalledOn == nil {
			return
		}
		start := p.sp.Time()
		stalledOn.stallWaiters = append(stalledOn.stallWaiters, p)
		p.stalled = true
		p.sp.Block("stalled on validated transaction")
		p.stalled = false
		removeStallWaiter(stalledOn, p)
		p.c.StallCycles += p.sp.Time() - start
	}
}

// fbWaitSubscribers blocks until no processor subscribed to the serial-
// fallback lock line has a validated level anywhere in its nest. Unlike
// waitValidatedConflictors it keys the validated check on the whole
// stack, not the levels holding the line: the subscription lives in the
// outermost read-set, but the commit window being waited out can belong
// to an open-nested child. The caller is outside any transaction (the
// serial claimant), so no violation can redirect the wait; committing
// levels wake stall waiters.
func (p *Proc) fbWaitSubscribers(line mem.Addr) {
	for {
		var stalledOn *Proc
		for _, q := range p.m.procs {
			if q == p {
				continue
			}
			if q.stack.ConflictsWithLine(line, false) != 0 && q.validatedFloor() > 0 {
				stalledOn = q
				break
			}
		}
		if stalledOn == nil {
			return
		}
		start := p.sp.Time()
		stalledOn.stallWaiters = append(stalledOn.stallWaiters, p)
		p.stalled = true
		p.sp.Block("stalled on validated transaction")
		p.stalled = false
		removeStallWaiter(stalledOn, p)
		p.c.StallCycles += p.sp.Time() - start
	}
}

// hasValidatedLevel reports whether any level selected by mask is
// validated.
func (p *Proc) hasValidatedLevel(mask uint32) bool {
	for _, l := range p.stack.Levels {
		if mask&(1<<(l.NL-1)) != 0 && l.Status == tm.Validated {
			return true
		}
	}
	return false
}

// unstall wakes this CPU if it is stalled (used when it gets violated so
// it can roll back instead of waiting forever).
func (p *Proc) unstall(now uint64) {
	if p.stalled && p.sp.State() == sim.Waiting {
		p.sp.Unblock(now)
	}
}

// wakeStallWaiters releases every CPU stalled on this CPU's commit. Only
// entries still inside their stall window are woken: a waiter that was
// violated while queued here has already been unblocked (and de-registers
// itself when it resumes), and waking it again could interrupt an
// unrelated Park.
func (p *Proc) wakeStallWaiters() {
	now := p.sp.Time()
	for _, q := range p.stallWaiters {
		if q.stalled && q.sp.State() == sim.Waiting {
			q.sp.Unblock(now)
		}
	}
	p.stallWaiters = p.stallWaiters[:0]
}

// removeStallWaiter deletes w from owner's stall-waiter list (no-op when
// absent, e.g. after the owner's commit already cleared the list).
func removeStallWaiter(owner, w *Proc) {
	for i, q := range owner.stallWaiters {
		if q == w {
			owner.stallWaiters = append(owner.stallWaiters[:i], owner.stallWaiters[i+1:]...)
			return
		}
	}
}

// emit records a structured lifecycle event for the tracer and the oracle.
func (p *Proc) emit(k trace.Kind, level int, open bool, addr mem.Addr, note string) {
	if (p.m.tracer == nil && p.m.oracle == nil) || p.untimed {
		return
	}
	p.dispatch(trace.Event{
		Cycle: p.sp.Time(), CPU: p.id, Kind: k,
		Level: level, Open: open, Addr: addr, Note: note,
	})
}

// emitMem records a memory event (word address plus the value moved).
// Every call site sits in the same engine grant window as the access's
// effect on shared state, so the global emission order equals the effect
// order — the property the oracle's committed-state model depends on.
func (p *Proc) emitMem(k trace.Kind, level int, addr mem.Addr, val uint64) {
	if (p.m.tracer == nil && p.m.oracle == nil) || p.untimed {
		return
	}
	p.dispatch(trace.Event{
		Cycle: p.sp.Time(), CPU: p.id, Kind: k,
		Level: level, Addr: addr, Val: val,
	})
}

func (p *Proc) dispatch(e trace.Event) {
	if p.m.tracer != nil {
		p.m.tracer(e)
	}
	if p.m.oracle != nil {
		p.m.oracle.Event(e)
	}
}

// backoffDelay computes the contention-management stall before a retry:
// randomized exponential backoff, with the "random" draw a deterministic
// mix of (cpu, attempt) so runs stay bit-identical across processes. The
// window doubling is what breaks the orbits two contending CPUs fall
// into (requester-wins mutual kills, or open-nested commits trading
// kills with the lazy engine): with merely linear escalation both sides'
// delays grow in lockstep and their relative phase drifts too slowly to
// ever clear the conflict window, while an exponentially growing window
// separates them in a handful of rounds. The window is capped so a single
// stall stays far below any livelock-detection budget.
//
// Mixing audit: the hash deliberately folds in only (cpu id, rollback
// count) — no per-process, per-machine, or package-level salt. Two
// machines in one process (parallel runner cells) therefore draw
// identical backoff sequences, and that is required, not a bug: a
// Machine is a closed system — cells never share simulated state, so
// equal sequences in different machines cannot correlate anything
// observable — while salting from package-level state (a shared seed or
// counter) would make a cell's delays depend on how many machines ran
// before it in the process, breaking the byte-identical -parallel and
// replay guarantees. Within one machine, the id term separates CPUs
// whose rollback counts escalate in lockstep (the case the mixing
// exists for); TestBackoffMixing pins both properties.
func (p *Proc) backoffDelay() int {
	base := p.m.cfg.BackoffBase
	if base <= 0 {
		return 0
	}
	shift := p.consecRollbacks - 1
	if shift > 12 {
		shift = 12
	}
	h := uint64(p.id)<<32 | uint64(uint32(p.consecRollbacks))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return base + int(h%(uint64(base)<<uint(shift)))
}

// fbPollCycles is the spin-poll interval on the serial-fallback lock,
// matching the workloads' barrier poll granularity.
const fbPollCycles = 20

// fbSpinWait spins until the serial-fallback lock word reads free, so a
// hardware (or TL2) transaction does not burn an xbegin just to be killed
// by an in-progress serial section. The reads are ordinary
// non-transactional loads — exactly the spin a real hybrid's begin path
// performs — so on the eager machine the poll naturally blocks on the
// serial owner's validated write of the lock word. The check is advisory:
// the transactional lock subscription after xbegin is what closes the
// race with a claim that lands between this spin and the subscribe.
func (p *Proc) fbSpinWait() {
	for p.Load(fbLockAddr) != 0 {
		p.Tick(fbPollCycles)
	}
}

// fbAcquire claims the serial-fallback lock: machine-level ownership is
// a check-and-set inside one engine grant window (the lock's atomic
// test-and-set), and the architected lock word is then set through the
// non-transactional store machinery — waiting out validated commit
// windows and killing every active transaction that subscribed to the
// word — with the distinct fallback-lock cause for attribution.
func (p *Proc) fbAcquire() {
	for {
		p.sp.Yield()
		if p.m.fbOwner == nil {
			p.m.fbOwner = p
			p.sp.Advance(1)
			break
		}
		p.sp.Advance(fbPollCycles)
	}
	p.step(1)
	// The lock claim is an atomic RMW and therefore a full fence (x86
	// lock-prefix semantics): pending stores drain before the lock word
	// publishes.
	p.sbFence()
	p.c.Stores++
	word := mem.WordAlign(fbLockAddr)
	line := p.line(fbLockAddr)
	// Wait out subscribers that are inside a commit window anywhere in
	// their nest: the per-level validated check below would miss a
	// subscriber whose validated level is an open-nested child that does
	// not itself hold the lock line, and such a child publishing after
	// the lock word is set would leak a commit into the serial window.
	p.fbWaitSubscribers(line)
	if p.m.cfg.Engine == Eager {
		p.eagerResolve(line, true, true, causeFallbackLock)
	} else {
		p.waitValidatedConflictors(line, false)
	}
	p.access(fbLockAddr, true, 0)
	p.m.mem.Store(word, 1)
	p.emitMem(trace.NtStore, 0, word, 1)
	if p.m.cfg.Engine == Lazy {
		p.violateOthers([]mem.Addr{line}, nil, causeFallbackLock)
	}
}

// fbRelease frees the serial-fallback lock after the serial section
// commits or aborts. The word is cleared first (an ordinary
// non-transactional store: no speculator can hold the line while the
// lock is held), then machine-level ownership, so a competing serial
// claimant cannot observe a free owner before the word reads free.
func (p *Proc) fbRelease() {
	p.Store(fbLockAddr, 0)
	// Lock hand-off is a release fence: under a weak model the free store
	// must be globally performed before machine ownership clears, or the
	// next claimant's word-set could be clobbered by this CPU's buffered 0
	// draining later (the lock would read free while held).
	p.sbFence()
	p.m.fbOwner = nil
}

// backoffStall advances time without retiring instructions (contention
// management between a rollback and its re-execution). The stall is
// announced as a Backoff span event first, so profiles show the wait as
// a distinct region rather than unexplained dead time.
func (p *Proc) backoffStall(cycles int) {
	if cycles <= 0 {
		return
	}
	if (p.m.tracer != nil || p.m.oracle != nil) && !p.untimed {
		p.dispatch(trace.Event{
			Cycle: p.sp.Time(), CPU: p.id, Kind: trace.Backoff,
			Level: p.stack.Depth(), By: -1, Dur: uint64(cycles),
		})
	}
	p.sp.Yield()
	p.sp.Advance(uint64(cycles))
}
