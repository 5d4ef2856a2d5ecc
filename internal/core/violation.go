package core

import (
	"math/bits"

	"tmisa/internal/mem"
	"tmisa/internal/tm"
	"tmisa/internal/trace"
)

// DebugDeliver, when non-nil, observes every conflict record popped for
// dispatch: victim CPU, line, mask, and current nesting depth.
var DebugDeliver func(cpu int, addr mem.Addr, mask uint32, depth int)

// DebugRollback, when non-nil, observes every violation-triggered
// rollback: the victim CPU, the conflicting line (xvaddr), the xvcurrent
// mask, and the rollback's target nesting level. Diagnostics only.
var DebugRollback func(cpu int, addr mem.Addr, mask uint32, target int)

// Violation-cause kinds, carried through violRec into the Note field of
// Violation and Rollback trace events so the profiler can break wasted
// cycles down by mechanism. They are diagnostic context only — delivery
// semantics never branch on them.
const (
	causeEagerLoad  = "eager-load"  // eager engine: transactional load killed a speculative writer
	causeEagerStore = "eager-store" // eager engine: transactional store killed readers/writers
	causeNtLoad     = "nt-load"     // strong atomicity: non-transactional load (wait-only, never kills)
	causeNtStore    = "nt-store"    // strong atomicity: non-transactional store displaced speculators
	causeLazyCommit = "lazy-commit" // lazy engine: commit broadcast hit the victim's sets
	causeFault      = "fault"       // injected by a FaultPlan (no aggressor CPU)
	causeAbort      = "abort"       // rollback context for explicit xabort unwinds
	// Hybrid-engine causes (Config.BoundedSpec / Config.Fallback).
	causeCapacity     = "capacity"      // bounded speculative state overflowed the cache (no aggressor CPU)
	causeStmCommit    = "stm-commit"    // TL2 fallback commit broadcast hit the victim's sets
	causeFallbackLock = "fallback-lock" // serial fallback acquired the global lock, killing subscribers
)

// violRec is one undelivered conflict: the conflicting line (xvaddr),
// the affected nesting levels (the xvcurrent/xvpending bitmask), and the
// diagnostic context of who raised it and why. The queue of violRecs
// realizes the architected registers: the head entry's mask is what
// xvcurrent would hold at dispatch; entries accumulated while reporting
// is disabled play the role of xvpending.
type violRec struct {
	addr mem.Addr
	mask uint32
	// by is the aggressor CPU (-1 for injected faults), why the cause
	// kind; both flow into trace events for conflict attribution.
	by  int
	why string
}

// enqueueViolation merges a conflict record into the queue (same line →
// masks OR together; the first record's aggressor/cause context wins,
// matching hardware that latches xvaddr context once per line).
func (p *Proc) enqueueViolation(r violRec) {
	for i := range p.violQ {
		if p.violQ[i].addr == r.addr {
			p.violQ[i].mask |= r.mask
			return
		}
	}
	p.violQ = append(p.violQ, r)
}

// violMask returns the union of all undelivered conflict masks (the
// architected xvcurrent|xvpending view used by xvalidate).
func (p *Proc) violMask() uint32 {
	var m uint32
	for _, r := range p.violQ {
		m |= r.mask
	}
	return m
}

// pendingFallbackLock reports whether a serial-fallback lock kill is
// queued against any level of this CPU. The serial section's mutual
// exclusion is absolute, so a level about to publish (open-nested or
// outermost) must lose to a queued kill even when the kill's mask only
// names an enclosing level.
func (p *Proc) pendingFallbackLock() bool {
	for _, r := range p.violQ {
		if r.why == causeFallbackLock {
			return true
		}
	}
	return false
}

// stripViolBit removes level nl from every queued conflict (the level's
// xrwsetclear); records left with no levels are dropped.
func (p *Proc) stripViolBit(nl int) {
	bit := uint32(1) << (nl - 1)
	out := p.violQ[:0]
	for _, r := range p.violQ {
		r.mask &^= bit
		if r.mask != 0 {
			out = append(out, r)
		}
	}
	p.violQ = out
}

// shiftViolBitDown moves conflicts recorded against level nl to its
// parent when a closed commit merges the sets.
func (p *Proc) shiftViolBitDown(nl int) {
	bit := uint32(1) << (nl - 1)
	for i := range p.violQ {
		if p.violQ[i].mask&bit != 0 {
			p.violQ[i].mask = p.violQ[i].mask&^bit | bit>>1
		}
	}
}

// deliver is the violation-delivery microcode (Section 4.3/4.6): at every
// instruction boundary, if reporting is enabled and a conflict is queued,
// the hardware saves xvpc/xvaddr, disables reporting, and jumps to the
// innermost transaction's violation handler. The handler's Decision
// stands in for software rewriting xvpc before xvret: Ignore resumes the
// interrupted transaction (consuming the record; further queued records
// re-invoke the handler, the xvpending protocol); Rollback — the default
// with no registered handler — restores the checkpoint of the outermost
// violated level, running the violation handlers of every discarded level
// in reverse registration order as compensations on the way.
//
// Delivery respects validation: a validated transaction can no longer be
// rolled back (Section 4.1), so conflicts touching only levels at or
// below the deepest validated level wait out its commit window; conflicts
// at levels above it (transactions nested inside commit handlers) deliver
// normally, with the rollback target clamped above the validated level.
func (p *Proc) deliver() {
	for {
		if !p.violReport {
			return
		}
		if p.stack.Depth() == 0 {
			// Conflicts can race with commit or land on non-transactional
			// code; they are meaningless here.
			p.violQ = p.violQ[:0]
			return
		}
		if len(p.violQ) == 0 {
			return
		}
		floor := p.validatedFloor()
		floorMask := (uint32(1) << floor) - 1
		idx := -1
		for i, r := range p.violQ {
			if r.mask&^floorMask != 0 {
				idx = i
				break
			}
		}
		if idx == -1 {
			return // everything is postponed behind the commit window
		}
		rec := p.violQ[idx]
		p.violQ = append(p.violQ[:idx], p.violQ[idx+1:]...)
		p.emitViolation(rec)
		if DebugDeliver != nil {
			DebugDeliver(p.id, rec.addr, rec.mask, p.stack.Depth())
		}

		// The rollback target if the handlers do not intervene: the
		// outermost violated level not shielded by validation.
		target := bits.TrailingZeros32(rec.mask&^floorMask) + 1
		if target > p.stack.Depth() {
			target = p.stack.Depth()
		}

		// Capacity aborts and the fallback lock's subscription kill are
		// engine-internal conditions, not data conflicts: software must
		// not Ignore its way past a full speculative buffer or into the
		// serial section's mutual exclusion (a real HTM delivers both as
		// non-maskable aborts). They skip the handler decision; handlers
		// still run as compensations on the forced rollback below.
		maskable := rec.why != causeCapacity && rec.why != causeFallbackLock

		// Dispatch: hardware jumps to the innermost transaction's
		// violation-handler code, but the software convention there walks
		// the handler stacks of enclosing levels too (Section 4.6 lets
		// software run handlers at all levels). The decision is made by
		// the innermost level that actually has handlers registered at or
		// above the rollback target; with none, the default is rollback.
		p.violReport = false
		dec := Rollback
		decision := -1 // index into p.txs of the deciding level
		if maskable {
			for li := len(p.txs) - 1; li >= target-1; li-- {
				if len(p.txs[li].violHs) == 0 {
					continue
				}
				decision = li
				hs := p.txs[li].violHs
				for i := len(hs) - 1; i >= 0; i-- {
					p.chargeInsn(CostHandlerDispatch)
					p.c.ViolationHandlers++
					if hs[i](p, Violation{Addr: rec.addr, Mask: rec.mask}) == Ignore {
						dec = Ignore
						break
					}
				}
				p.chargeInsn(CostVRet)
				break
			}
		}
		p.violReport = true // xvret re-enables reporting

		if dec == Ignore {
			continue // next queued conflict, if any
		}

		// Roll back to the target. The deciding level's handlers already
		// ran; every other discarded level's handlers run now, innermost
		// first, as compensations.
		p.violReport = false
		for li := len(p.txs) - 1; li >= target-1; li-- {
			if li == decision {
				continue
			}
			t := p.txs[li]
			for i := len(t.violHs) - 1; i >= 0; i-- {
				p.chargeInsn(CostHandlerDispatch)
				p.c.ViolationHandlers++
				t.violHs[i](p, Violation{Addr: rec.addr, Mask: rec.mask})
			}
		}
		p.violReport = true
		if target == 1 {
			p.c.OuterRollbacks++
		} else {
			p.c.InnerRollbacks++
		}
		if DebugRollback != nil {
			DebugRollback(p.id, rec.addr, rec.mask, target)
		}
		p.rbCause = rbCause{addr: rec.addr, by: rec.by, why: rec.why}
		panic(p.rollbackUnwind(target))
	}
}

// rbCause is the conflict context of the unwind in flight, latched at the
// panic site so every level's Rollback event can name the address and
// aggressor that doomed it (the xvaddr the software would have read).
type rbCause struct {
	addr mem.Addr
	by   int
	why  string
}

// emitViolation records a Violation event carrying the aggressor CPU and
// cause kind along with the architected xvaddr.
func (p *Proc) emitViolation(rec violRec) {
	if (p.m.tracer == nil && p.m.oracle == nil) || p.untimed {
		return
	}
	p.dispatch(trace.Event{
		Cycle: p.sp.Time(), CPU: p.id, Kind: trace.Violation,
		Level: p.stack.Depth(), Addr: rec.addr, By: rec.by, Note: rec.why,
	})
}

// validatedFloor returns the deepest validated nesting level (0 if none):
// the boundary at and below which violations cannot currently be
// delivered.
func (p *Proc) validatedFloor() int {
	floor := 0
	for _, l := range p.stack.Levels {
		if l.Status == tm.Validated && l.NL > floor {
			floor = l.NL
		}
	}
	return floor
}
