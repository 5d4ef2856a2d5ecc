package core

import (
	"fmt"

	"tmisa/internal/mem"
	"tmisa/internal/tm"
	"tmisa/internal/trace"
)

// Violation is the architected information a violation handler receives:
// the conflicting address (xvaddr, a line address, zero when unavailable)
// and the per-level conflict bitmask (xvcurrent) at dispatch.
type Violation struct {
	Addr mem.Addr
	Mask uint32
}

// Decision is what a violation handler's software does by rewriting xvpc
// before xvret (Section 4.3): resume the interrupted transaction, or roll
// back and re-execute.
type Decision int

const (
	// Rollback discards the violated levels and re-executes from the
	// outermost violated level's register checkpoint (the default when no
	// handler is registered).
	Rollback Decision = iota
	// Ignore acknowledges the violation and resumes the transaction where
	// it was interrupted. The conflicting lines stay in the read-/write-
	// sets, so future conflicts are still reported (the conditional-
	// synchronization scheduler depends on this).
	Ignore
)

// ViolationHandler is a software violation handler. It runs as part of
// the interrupted transaction with violation reporting disabled; shared
// state must be accessed through open-nested transactions.
type ViolationHandler func(p *Proc, v Violation) Decision

// AbortHandler runs on an explicit xabort, innermost-registration first,
// before the transaction's state is rolled back.
type AbortHandler func(p *Proc, reason any)

// CommitHandler runs between xvalidate and xcommit, in registration
// order, with access to the transaction's speculative state.
type CommitHandler func(p *Proc)

// AbortError is returned by Atomic/AtomicOpen when the transaction ended
// with Tx.Abort rather than a commit.
type AbortError struct {
	// Reason is the value passed to Tx.Abort.
	Reason any
}

func (e *AbortError) Error() string { return fmt.Sprintf("transaction aborted: %v", e.Reason) }

// Tx is the software-visible face of one TCB frame: the handler stacks
// (Figure 2) plus the abort instruction. A Tx is only valid while its
// level is active; the Proc hands it to the transaction's body and to
// handlers.
type Tx struct {
	p *Proc
	// level is the attempt's TCB frame while it is on the stack, and nil
	// once the attempt is done (or under the sequential baseline, which
	// keeps no transactional state): the stack reuses the frame for the
	// next transaction at its depth. What a done handle still reports is
	// copied out — nl, open and mode at xbegin, the set sizes at popLevel.
	level        *tm.Level
	nl           int
	open         bool
	mode         tm.Mode
	rsize, wsize int

	commitHs []CommitHandler
	violHs   []ViolationHandler
	abortHs  []AbortHandler

	// inCommitHs marks the commit-handler phase. A serial-fallback level
	// is Validated from birth, so Abort cannot use the status alone to
	// reject commit-handler aborts there.
	inCommitHs bool

	done bool
}

// Proc returns the executing processor.
func (tx *Tx) Proc() *Proc { return tx.p }

// NL returns the transaction's 1-based nesting level.
func (tx *Tx) NL() int { return tx.nl }

// Open reports whether this is an open-nested transaction.
func (tx *Tx) Open() bool { return tx.open }

// Mode returns this attempt's execution mode: tm.HTM for a hardware
// attempt, tm.Serial or tm.TL2 after a hybrid-engine fallback
// transition. Bodies can branch on it to skip HTM-only tuning (for
// example contention managers) on the already-serialized paths.
func (tx *Tx) Mode() tm.Mode { return tx.mode }

// Done reports whether the attempt this handle belonged to has ended —
// committed, aborted, or rolled back. The handle dies with its TCB
// frame: once Done, every mutating method (OnCommit, OnViolation,
// OnAbort, Abort) panics through check(). The tmlint txescape rule
// flags the stores that make a done handle reachable in the first
// place.
func (tx *Tx) Done() bool { return tx.done }

// ReadSetSize and WriteSetSize expose footprint for diagnostics. On a
// done handle they report the sizes the attempt ended with.
func (tx *Tx) ReadSetSize() int {
	if tx.level == nil {
		return tx.rsize
	}
	return len(tx.level.ReadSet)
}

func (tx *Tx) WriteSetSize() int {
	if tx.level == nil {
		return tx.wsize
	}
	return len(tx.level.WriteSet)
}

func (tx *Tx) check() {
	if tx.done {
		panic("core: use of Tx after its transaction ended")
	}
}

// OnCommit pushes a commit handler (Section 4.2). Handlers run between
// xvalidate and xcommit in registration order, with the paper's
// 9-instruction registration cost.
func (tx *Tx) OnCommit(h CommitHandler) {
	tx.check()
	tx.p.step(CostRegisterHandler)
	tx.commitHs = append(tx.commitHs, h)
}

// OnViolation pushes a violation handler (Section 4.3). Handlers run in
// reverse registration order when a conflict is delivered.
func (tx *Tx) OnViolation(h ViolationHandler) {
	tx.check()
	tx.p.step(CostRegisterHandler)
	tx.violHs = append(tx.violHs, h)
}

// OnAbort pushes an abort handler (Section 4.4), run in reverse
// registration order by Tx.Abort.
func (tx *Tx) OnAbort(h AbortHandler) {
	tx.check()
	tx.p.step(CostRegisterHandler)
	tx.abortHs = append(tx.abortHs, h)
}

// Abort is the xabort instruction: it dispatches the abort handlers
// (reverse registration order, reporting disabled), rolls this level
// back, and makes the enclosing Atomic return *AbortError. Reason is
// carried to the handlers and the error.
func (tx *Tx) Abort(reason any) {
	tx.check()
	// A serial-fallback level carries Validated status from xbegin but is
	// still abortable from its body (the undo log restores its in-place
	// writes, which nothing can have observed); only the commit-handler
	// phase is past the point of no return there.
	if tx.level != nil && tx.level.Status == tm.Validated && (tx.mode != tm.Serial || tx.inCommitHs) {
		panic("core: Tx.Abort after xvalidate (commit handlers cannot abort the transaction)")
	}
	p := tx.p
	p.step(CostAbort)
	p.emit(trace.Abort, tx.nl, tx.open, 0, fmt.Sprint(reason))
	p.c.UserAborts++
	// xabort disables further violation reporting while the handler runs.
	saved := p.violReport
	p.violReport = false
	for i := len(tx.abortHs) - 1; i >= 0; i-- {
		p.step(CostHandlerDispatch)
		p.c.AbortHandlers++
		tx.abortHs[i](p, reason)
	}
	p.step(CostVRet)
	p.violReport = saved
	p.rbCause = rbCause{by: -1, why: causeAbort}
	panic(&unwind{kind: unwindAbort, target: tx.nl, reason: reason})
}
