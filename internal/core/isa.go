package core

import (
	"fmt"
	"slices"

	"tmisa/internal/mem"
	"tmisa/internal/tm"
	"tmisa/internal/trace"
)

// unwindKind distinguishes the two non-commit exits of a transaction.
type unwindKind int

const (
	// unwindRollback re-executes from the target level's checkpoint.
	unwindRollback unwindKind = iota
	// unwindAbort surfaces as *AbortError from the target level's Atomic.
	unwindAbort
)

// unwind is the longjmp realizing xregrestore: it propagates (as a panic)
// from the point of violation or abort to the xbegin frame of the target
// nesting level, rolling back every level it crosses.
type unwind struct {
	kind   unwindKind
	target int
	reason any
}

// rollbackUnwind returns the CPU's rollback unwind for a target level.
// Rollback unwinds carry no reason and are never mutated, so one per
// level serves every rollback and a rollback allocates nothing.
func (p *Proc) rollbackUnwind(target int) *unwind {
	for len(p.unwinds) <= target {
		p.unwinds = append(p.unwinds, &unwind{kind: unwindRollback, target: len(p.unwinds)})
	}
	return p.unwinds[target]
}

// Atomic executes body as a transaction: xbegin, body, xvalidate, commit
// handlers, xcommit. Nested calls create closed-nested transactions with
// independent rollback (or are flattened under Config.Flatten). It
// returns nil on commit or *AbortError if body called Tx.Abort.
//
// On a violation that rolls this level back, body re-executes from
// scratch: body must be written like transaction code (no externally
// visible side effects outside simulated memory and handler
// registrations, which the rollback machinery undoes).
func (p *Proc) Atomic(body func(*Tx)) error { return p.atomic(false, p.m.cfg.Fallback, body) }

// AtomicOpen executes body as an open-nested transaction (xbegin_open):
// its commit publishes to shared memory immediately and independently of
// any enclosing transaction (Section 4.5).
func (p *Proc) AtomicOpen(body func(*Tx)) error { return p.atomic(true, p.m.cfg.Fallback, body) }

// AtomicFallback is Atomic with an explicit per-transaction fallback
// mode, overriding Config.Fallback for this outermost transaction
// (NoFallback pins it to HTM-only retries). The machine must have the
// hybrid engine enabled: without machine-wide lock subscription a serial
// section could not exclude the other transactions.
func (p *Proc) AtomicFallback(fb FallbackKind, body func(*Tx)) error {
	if p.m.cfg.Fallback == NoFallback && fb != NoFallback && !p.seqMode {
		panic("core: AtomicFallback requires Config.Fallback to enable the hybrid engine")
	}
	return p.atomic(false, fb, body)
}

func (p *Proc) atomic(open bool, fb FallbackKind, body func(*Tx)) error {
	if p.seqMode {
		return p.seqAtomic(body)
	}
	if p.stack.Depth() > 0 && p.m.cfg.Flatten {
		// Conventional HTM baseline: inner transactions are subsumed into
		// the outermost one; xbegin/xcommit degenerate to nesting-count
		// updates (one instruction each).
		p.step(1)
		body(p.txs[len(p.txs)-1])
		p.step(1)
		return nil
	}
	// The hybrid engine operates on outermost transactions only: when a
	// fallback is configured machine-wide, every one of them subscribes
	// to the serial-fallback lock, and this one additionally falls back
	// to fb's STM path when HTM retries stop making sense. A nested
	// transaction instead inherits its parent's execution mode: the STM
	// paths keep per-level undo logs / write-buffers just like HTM
	// levels, so closed nesting composes — an inner Abort unwinds only
	// the child — and the lock and retry machinery stays with the
	// outermost level that owns the fallback decision.
	nested := p.stack.Depth() > 0
	if !nested {
		// xbegin is a fence (weakmem.go): the transaction must not begin
		// with this CPU's earlier stores still pending, so the paper's
		// single-global-order semantics hold inside transactions under every
		// memory model. Nested begins run with the buffer already empty (it
		// stays empty for the whole nest), and retries after a rollback
		// re-enter through this same fence with nothing buffered.
		p.sbFence()
	}
	hybrid := p.m.cfg.Fallback != NoFallback && !nested
	attempts := 0
	mode := tm.HTM
	if nested {
		mode = p.stack.Top().Mode
	}
	for {
		if hybrid && mode != tm.Serial {
			p.fbSpinWait()
		}
		if mode == tm.Serial && !nested {
			p.fbAcquire()
		}
		tx := p.xbeginMode(open, mode)
		run := body
		if hybrid && mode != tm.Serial {
			// Lock subscription: read the serial-fallback lock word
			// transactionally, so a serial acquisition kills this
			// transaction through ordinary conflict detection. A non-zero
			// read means a serial section claimed the lock between the
			// pre-spin and this subscribe — unwind and wait it out.
			run = func(tx *Tx) {
				if p.Load(fbLockAddr) != 0 {
					p.rbCause = rbCause{addr: p.line(fbLockAddr), by: -1, why: causeFallbackLock}
					panic(p.rollbackUnwind(tx.level.NL))
				}
				body(tx)
			}
		}
		outcome, reason := p.runLevel(tx, run)
		if mode == tm.Serial && !nested {
			p.fbRelease()
		}
		switch outcome {
		case outcomeCommitted:
			// Only an outermost commit means the CPU made global progress;
			// an inner level committing while the enclosing transaction
			// keeps getting killed must not defuse the escalation.
			if p.stack.Depth() == 0 {
				p.consecRollbacks = 0
			}
			return nil
		case outcomeAborted:
			return &AbortError{Reason: reason}
		case outcomeRollback:
			p.consecRollbacks++
			if hybrid && mode == tm.HTM && fb != NoFallback {
				switch p.rbCause.why {
				case causeCapacity:
					// Deterministic footprint: retrying in HTM cannot
					// shrink it, so fall back immediately, without backoff.
					mode = fallbackTmMode(fb)
					p.emitFallback(mode, causeCapacity)
					continue
				case causeFallbackLock:
					// Not a data conflict — a serial section killed the
					// subscription. The next iteration's pre-spin waits it
					// out; don't charge the retry budget.
				default:
					attempts++
					if attempts >= p.m.cfg.HTMRetryBudget {
						mode = fallbackTmMode(fb)
						p.emitFallback(mode, p.rbCause.why)
						continue
					}
				}
			}
			p.backoffStall(p.backoffDelay())
		}
	}
}

// fallbackTmMode maps the config knob to the level execution mode.
func fallbackTmMode(fb FallbackKind) tm.Mode {
	if fb == TL2Fallback {
		return tm.TL2
	}
	return tm.Serial
}

// emitFallback counts and records an HTM→STM fallback transition; the
// conflict context of the final HTM abort is still latched in rbCause.
func (p *Proc) emitFallback(mode tm.Mode, why string) {
	p.c.Fallbacks++
	if (p.m.tracer == nil && p.m.oracle == nil) || p.untimed {
		return
	}
	p.dispatch(trace.Event{
		Cycle: p.sp.Time(), CPU: p.id, Kind: trace.Fallback,
		Addr: p.rbCause.addr, By: p.rbCause.by,
		Note: mode.String() + ":" + why,
	})
}

// seqAtomic is the sequential-baseline semantics: no speculation, no
// conflicts; commit handlers still run at the end (so transactional I/O
// code works unchanged), violation handlers never fire, and Abort
// surfaces as an error after its abort handlers.
func (p *Proc) seqAtomic(body func(*Tx)) (err error) {
	tx := &Tx{p: p, nl: p.stack.Depth() + 1}
	defer func() {
		r := recover()
		if r == nil {
			for _, h := range tx.commitHs {
				h(p)
			}
			tx.done = true
			return
		}
		if u, ok := r.(*unwind); ok && u.kind == unwindAbort {
			tx.done = true
			err = &AbortError{Reason: u.reason}
			return
		}
		panic(r)
	}()
	body(tx)
	return nil
}

type levelOutcome int

const (
	outcomeCommitted levelOutcome = iota
	outcomeRollback
	outcomeAborted
)

// runLevel executes one attempt of one nesting level and converts unwind
// panics crossing this frame into rollbacks of this level.
func (p *Proc) runLevel(tx *Tx, body func(*Tx)) (outcome levelOutcome, reason any) {
	myNL := tx.level.NL
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		u, ok := r.(*unwind)
		if !ok {
			panic(r)
		}
		p.rollbackLevel(tx)
		if u.target < myNL {
			panic(u) // an ancestor is also rolling back
		}
		if u.kind == unwindAbort {
			outcome, reason = outcomeAborted, u.reason
		} else {
			outcome = outcomeRollback
		}
	}()
	body(tx)
	p.xvalidate(tx)
	if tx.level.Open || tx.level.NL == 1 {
		// Commit handlers run between xvalidate and xcommit only when
		// this level commits to shared memory; a closed-nested commit
		// instead merges its handlers into the parent (Section 4.6).
		p.runCommitHandlers(tx)
	}
	p.xcommit(tx)
	return outcomeCommitted, nil
}

// xbegin allocates the TCB frame (6 instructions) and checkpoints the
// registers (realized by the enclosing re-execution loop).
func (p *Proc) xbegin(open bool) *Tx { return p.xbeginMode(open, tm.HTM) }

// xbeginMode is xbegin with the level's execution mode: HTM, or one of
// the hybrid engine's STM fallback paths (outermost levels only). A
// serial level is born validated — irrevocable from its first
// instruction, which is what lets it run I/O-free of rollback concerns
// and postpones every violation against it until commit (the global
// lock has already excluded all transactional conflict anyway).
func (p *Proc) xbeginMode(open bool, mode tm.Mode) *Tx {
	if len(p.sb) != 0 {
		// Guards the weak-memory invariant every fence site maintains: a
		// transaction never begins (and so never runs) with buffered
		// non-transactional stores pending on its CPU.
		panic(fmt.Sprintf("core: CPU %d xbegin with %d buffered stores (missing fence)", p.id, len(p.sb)))
	}
	p.step(CostXBegin)
	note := ""
	if mode != tm.HTM {
		note = mode.String()
	}
	p.emit(trace.Begin, p.stack.Depth()+1, open, 0, note)
	lvl := p.stack.Push(open, p.sp.Time())
	lvl.Mode = mode
	if mode == tm.Serial {
		lvl.Status = tm.Validated
	}
	tx := &Tx{p: p, level: lvl, nl: lvl.NL, open: open, mode: mode}
	p.txs = append(p.txs, tx)
	p.c.TxBegins++
	if max := p.m.cfg.Cache.MaxLevels; max > 0 && lvl.NL > max {
		// Depth virtualization: the cache metadata tracks this level on the
		// deepest hardware level; package tm keeps precise membership.
		p.c.VirtualizedBegins++
	}
	return tx
}

// xvalidate verifies atomicity for levels that commit to shared memory:
// in the lazy engine it acquires the commit token (Section 6.1) and
// confirms no conflict hit this level; in the eager engine ownership was
// acquired access-by-access, so only the conflict check remains. For
// closed-nested levels it is a no-op. After xvalidate completes, the
// transaction can no longer be rolled back by a prior memory access.
func (p *Proc) xvalidate(tx *Tx) {
	p.step(CostValidate)
	lvl := tx.level
	if lvl.Mode == tm.Serial {
		// Serial-irrevocable: validated since xbegin; nothing to check and
		// no token to take (the global lock excludes every other commit).
		p.emit(trace.Validate, lvl.NL, lvl.Open, 0, "serial")
		return
	}
	if !lvl.Open && lvl.NL > 1 {
		lvl.Status = tm.Validated // closed nesting: xvalidate is a no-op
		p.emit(trace.Validate, lvl.NL, lvl.Open, 0, "")
		return
	}
	if lvl.Mode == tm.TL2 {
		// TL2's commit-time instrumentation: re-validate the read set
		// against the version clock and lock the write set.
		p.chargeInsn(len(lvl.ReadSet)*CostStmValidateLine + len(lvl.WriteSet)*CostStmLockLine)
	}
	bit := uint32(1) << (lvl.NL - 1)
	for {
		if p.m.cfg.Engine == Lazy {
			if p.tokenDepth > 0 {
				p.tokenDepth++
			} else {
				waited, ok := p.m.token.Acquire(p.sp)
				p.c.TokenWaitCycle += waited
				if !ok {
					// Cancelled: a conflict arrived while we queued for
					// the token. Re-arbitrate; the conflict-bit check
					// below decides whether this level lost.
					continue
				}
				p.tokenDepth = 1
			}
		}
		if p.violMask()&bit != 0 || p.pendingFallbackLock() {
			// A conflict hit this level before validation completed: the
			// conflict algorithm guarantees a validated transaction is
			// never violated by an active one, so this level loses. Give
			// the token back and roll back for re-execution (conflicts
			// against other levels stay queued for normal delivery). A
			// queued fallback-lock kill dooms this level even when it
			// targets an enclosing one: the serial section's exclusion is
			// absolute, and an open child publishing first would leak a
			// commit into the serial window.
			p.releaseToken()
			if lvl.NL == 1 {
				p.c.OuterRollbacks++
			} else {
				p.c.InnerRollbacks++
			}
			if DebugRollback != nil {
				DebugRollback(p.id, 0, p.violMask(), lvl.NL)
			}
			// Attribute the rollback to the queued conflict that doomed this
			// level (the first record carrying its bit; enqueue order is the
			// arrival order, so this is the record xvaddr would show).
			p.rbCause = rbCause{by: -1}
			for _, r := range p.violQ {
				if r.mask&bit != 0 || r.why == causeFallbackLock {
					p.rbCause = rbCause{addr: r.addr, by: r.by, why: r.why}
					break
				}
			}
			panic(p.rollbackUnwind(lvl.NL))
		}
		break
	}
	lvl.Status = tm.Validated
	p.emit(trace.Validate, lvl.NL, lvl.Open, 0, "")
}

// runCommitHandlers walks the commit-handler stack in registration order
// between the two commit phases (Section 4.2).
func (p *Proc) runCommitHandlers(tx *Tx) {
	tx.inCommitHs = true
	for _, h := range tx.commitHs {
		p.chargeInsn(CostHandlerDispatch)
		p.c.CommitHandlers++
		p.emit(trace.Handler, tx.level.NL, tx.level.Open, 0, "commit")
		h(p)
	}
}

// xcommit makes the transaction's writes visible: a closed-nested commit
// merges into the parent (no update escapes to memory); an open-nested or
// outermost commit publishes the write-buffer, broadcasts the write-set
// for lazy conflict detection, applies the open-nesting semantics to
// ancestors, and releases the commit token.
func (p *Proc) xcommit(tx *Tx) {
	p.chargeInsn(CostCommit)
	lvl := tx.level

	if !lvl.Open && lvl.NL > 1 {
		// Closed-nested commit: merge speculative state and sets into the
		// parent (Figure 1, steps 1-2).
		parent := p.stack.At(lvl.NL - 1)
		merged := tm.MergeClosedInto(parent, lvl)
		p.c.MergedLines += uint64(merged)
		cres := p.hier.CommitLevel(lvl.NL, false)
		p.sp.Advance(cres.Latency)
		ptx := p.txs[lvl.NL-2]
		ptx.commitHs = append(ptx.commitHs, tx.commitHs...)
		ptx.violHs = append(ptx.violHs, tx.violHs...)
		ptx.abortHs = append(ptx.abortHs, tx.abortHs...)
		p.shiftViolBitDown(lvl.NL)
		p.emit(trace.ClosedCommit, lvl.NL, false, 0, "")
		lvl.Status = tm.Committed
		p.c.ClosedCommits++
		p.c.TxCommits++
		p.popLevel(tx)
		return
	}

	// Open-nested or outermost commit: publish to shared memory
	// (Figure 1, steps 3-4). A serial-fallback level already wrote in
	// place, access by access, and nothing could observe it mid-flight —
	// its commit publishes nothing and broadcasts nothing.
	if p.m.cfg.Engine == Lazy && lvl.Mode != tm.Serial {
		for _, w := range sortedKeys(&p.scratch, lvl.WBuf) {
			p.m.mem.Store(w, lvl.WBuf[w])
		}
		// Broadcast the write-set over the bus; every other processor
		// snoops it against its read-/write-sets (lazy conflict
		// detection).
		if n := len(lvl.WriteSet); n > 0 {
			granule := p.m.cfg.Cache.LineSize
			if p.m.cfg.WordTracking {
				granule = mem.WordSize
			}
			bytes := n * granule
			done := p.m.bus.Transfer(p.sp.Time(), bytes)
			p.c.BusCycles += done - p.sp.Time()
			p.sp.Advance(done - p.sp.Time())
		}
		why := causeLazyCommit
		if lvl.Mode == tm.TL2 {
			why = causeStmCommit
		}
		p.violateOthers(sortedKeys(&p.scratch, lvl.WriteSet), nil, why)
	}
	if lvl.Open {
		// Memory already holds every value this commit made permanent: the
		// eager engine wrote in place, the lazy write-buffer drained above,
		// and immediate stores landed instantly in both. Reading the buffer
		// instead would miss imst words, which live only in the undo log —
		// ancestors' undo entries for them would be patched to zero and a
		// later enclosing rollback would wipe out the committed value.
		committed := func(w mem.Addr) uint64 { return p.m.mem.Load(w) }
		rewrites := tm.ApplyOpenCommitToAncestors(&p.stack, lvl, p.m.cfg.OpenSemantics, committed)
		if rewrites > 0 {
			p.chargeInsn(rewrites * CostOpenUndoSearch)
		}
		p.c.OpenCommits++
	}
	p.hier.CommitLevel(lvl.NL, true)
	// Both engines can have CPUs stalled on this commit: eager conflictors
	// blocked on a validated owner, and (lazy) non-transactional stores
	// waiting out the commit window.
	p.wakeStallWaiters()
	if lvl.NL == 1 {
		// The outermost commit drains any serialization acquired early
		// (SerializeToCommit) in addition to its own validate hold.
		for p.tokenDepth > 0 {
			p.releaseToken()
		}
	} else {
		p.releaseToken()
	}
	note := ""
	if lvl.Mode != tm.HTM {
		note = lvl.Mode.String()
		p.c.StmCommits++
	}
	p.emit(trace.Commit, lvl.NL, lvl.Open, 0, note)
	lvl.Status = tm.Committed
	p.c.TxCommits++
	p.popLevel(tx)
}

// SerializeToCommit models HTM systems that revert to serial execution at
// an I/O point: the transaction acquires the commit token immediately and
// holds it until its outermost commit, excluding every other commit in the
// machine. The transactional-I/O evaluation uses it as the conventional
// baseline the paper's commit-handler scheme is compared against. It is a
// no-op in the eager engine (whose commits are local) and outside
// transactions.
func (p *Proc) SerializeToCommit() {
	if p.m.cfg.Engine != Lazy || p.seqMode || p.stack.Depth() == 0 {
		return
	}
	p.step(1)
	for p.tokenDepth == 0 {
		waited, ok := p.m.token.Acquire(p.sp)
		p.c.TokenWaitCycle += waited
		if ok {
			p.tokenDepth = 1
			return
		}
		// Cancelled by a violation while queued: take it (this normally
		// unwinds and the transaction retries).
		p.deliver()
	}
}

// rollbackLevel discards one level: restore the undo-log (FILO), flush
// the write-buffer, gang-clear the cache marks, and deallocate the TCB
// (xrwsetclear + xregrestore, 6 instructions without handlers).
func (p *Proc) rollbackLevel(tx *Tx) {
	lvl := p.stack.Top()
	if lvl != tx.level {
		panic(fmt.Sprintf("core: CPU %d rollback of non-top level %d (top %d)", p.id, tx.level.NL, lvl.NL))
	}
	p.chargeInsn(CostRollback)
	for i := len(lvl.Undo) - 1; i >= 0; i-- {
		p.m.mem.Store(lvl.Undo[i].Addr, lvl.Undo[i].Old)
	}
	p.hier.RollbackLevel(lvl.NL)
	lvl.Status = tm.Aborted
	// A serial-fallback level is validated from birth, so other CPUs can
	// already be stalled on it mid-body; its Tx.Abort unwind is the one
	// way a validated level dies without reaching xcommit's wake. Waking
	// is always safe: woken waiters re-check their conflict and re-stall
	// if it still stands.
	p.wakeStallWaiters()
	if lvl.NL == 1 {
		// Release any serialization the doomed transaction held.
		for p.tokenDepth > 0 {
			p.releaseToken()
		}
	}
	p.c.Rollbacks++
	wasted := p.sp.Time() - lvl.StartCycle
	p.c.WastedCycles += wasted
	if (p.m.tracer != nil || p.m.oracle != nil) && !p.untimed {
		// The cause latched at the unwind's panic site holds for every
		// level the unwind crosses: one conflict dooms them all.
		p.dispatch(trace.Event{
			Cycle: p.sp.Time(), CPU: p.id, Kind: trace.Rollback,
			Level: lvl.NL, Open: lvl.Open,
			Addr: p.rbCause.addr, By: p.rbCause.by, Wasted: wasted,
			Note: p.rbCause.why,
		})
	}
	p.popLevel(tx)
}

// popLevel removes the top TCB frame and retires its violation bits (a
// committed level's conflicts die with it — commit won the race; an
// aborted level's were cleared by its xrwsetclear).
func (p *Proc) popLevel(tx *Tx) {
	p.stripViolBit(tx.level.NL)
	// The stack hands this frame to the next transaction at its depth;
	// the done handle keeps only its own attempt's footprint.
	tx.rsize, tx.wsize = len(tx.level.ReadSet), len(tx.level.WriteSet)
	tx.level = nil
	p.stack.Pop()
	p.txs = p.txs[:len(p.txs)-1]
	tx.done = true
	if p.stack.Depth() == 0 {
		p.violQ = p.violQ[:0]
	}
}

// releaseToken undoes one level of (reentrant) token holding.
func (p *Proc) releaseToken() {
	if p.m.cfg.Engine != Lazy || p.tokenDepth == 0 {
		return
	}
	p.tokenDepth--
	if p.tokenDepth == 0 {
		p.m.token.Release(p.sp, p.sp.Time())
	}
}

// chargeInsn charges instructions without an engine yield (used inside
// multi-step ISA operations whose effects must be atomic in sim time).
func (p *Proc) chargeInsn(n int) {
	p.c.Instructions += uint64(n)
	p.sp.Advance(uint64(n))
}

// sortedKeys returns m's addresses in ascending order, the deterministic
// order every walk over a set or write-buffer needs. It appends into
// *buf, so the result is only valid until buf's next use.
func sortedKeys[V any](buf *[]mem.Addr, m map[mem.Addr]V) []mem.Addr {
	out := (*buf)[:0]
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	*buf = out
	return out
}
