package core

import (
	"strings"
	"testing"

	"tmisa/internal/tm"
)

// TestTxDoneLifecycle pins the handle-invalidation contract: Done is
// false for exactly the lifetime of the body and its handlers, and true
// forever after, on both the commit and the abort path (popLevel runs
// on every exit). A done handle keeps reporting its own attempt's
// identity and footprint even after the TCB stack hands its level to a
// later, open and larger transaction at the same depth.
func TestTxDoneLifecycle(t *testing.T) {
	m := NewMachine(testConfig(1, Lazy))
	a, b, c := m.AllocLine(), m.AllocLine(), m.AllocLine()
	var duringBody, duringCommitH bool
	var committed, aborted, leaked *Tx
	type view struct {
		nl, reads, writes int
		open              bool
		mode              tm.Mode
	}
	look := func(tx *Tx) view { return view{tx.NL(), tx.ReadSetSize(), tx.WriteSetSize(), tx.Open(), tx.Mode()} }
	var inReuse view
	m.Run(func(p *Proc) {
		p.Atomic(func(tx *Tx) {
			duringBody = tx.Done()
			tx.OnCommit(func(*Proc) { duringCommitH = tx.Done() })
			committed = tx //tmlint:allow txescape -- the test asserts on the dead handle
		})
		p.Atomic(func(tx *Tx) {
			aborted = tx //tmlint:allow txescape -- same, via the abort path
			tx.Abort("die")
		})
		p.Atomic(func(*Tx) {
			p.Atomic(func(tx *Tx) {
				p.Store(a, p.Load(a)+1)
				leaked = tx //tmlint:allow txescape -- the test reads the dead handle after its level is reused
			})
		})
		p.Atomic(func(*Tx) {
			//tmlint:allow nesting -- an open child at the leaked handle's depth is the point
			p.AtomicOpen(func(*Tx) {
				p.Store(b, p.Load(a)+p.Load(b)+p.Load(c))
				inReuse = look(leaked)
			})
		})
	})
	want := view{nl: 2, reads: 1, writes: 1, mode: tm.HTM}
	if inReuse != want {
		t.Errorf("done handle while its level is reused = %+v, want %+v", inReuse, want)
	}
	if got := look(leaked); got != want {
		t.Errorf("done handle after its level was reused = %+v, want %+v", got, want)
	}
	if duringBody {
		t.Error("Done() = true inside the atomic body")
	}
	if duringCommitH {
		t.Error("Done() = true inside a commit handler (handlers run before xcommit)")
	}
	if committed == nil || !committed.Done() {
		t.Error("Done() = false after commit")
	}
	if aborted == nil || !aborted.Done() {
		t.Error("Done() = false after abort")
	}
}

// TestStaleTxEveryMethodPanics: every mutating method of a done handle
// must die in tx.check() with the documented message, post-commit and
// post-abort alike.
func TestStaleTxEveryMethodPanics(t *testing.T) {
	m := NewMachine(testConfig(1, Lazy))
	var postCommit, postAbort *Tx
	m.Run(func(p *Proc) {
		p.Atomic(func(tx *Tx) { postCommit = tx }) //tmlint:allow txescape -- leaks the handle on purpose
		p.Atomic(func(tx *Tx) {
			postAbort = tx //tmlint:allow txescape -- leaks the handle on purpose
			tx.Abort("stale")
		})
	})
	for _, stale := range []struct {
		how string
		tx  *Tx
	}{{"post-commit", postCommit}, {"post-abort", postAbort}} {
		methods := []struct {
			name string
			call func()
		}{
			{"OnCommit", func() { stale.tx.OnCommit(func(*Proc) {}) }},
			{"OnViolation", func() { stale.tx.OnViolation(func(*Proc, Violation) Decision { return Rollback }) }},
			{"OnAbort", func() { stale.tx.OnAbort(func(*Proc, any) {}) }},
			{"Abort", func() { stale.tx.Abort("again") }},
		}
		for _, m := range methods {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s %s on a done Tx: no panic", stale.how, m.name)
						return
					}
					if msg, ok := r.(string); !ok || !strings.Contains(msg, "use of Tx after its transaction ended") {
						t.Errorf("%s %s panic = %v, want the tx.check() message", stale.how, m.name, r)
					}
				}()
				m.call()
			}()
		}
	}
}
