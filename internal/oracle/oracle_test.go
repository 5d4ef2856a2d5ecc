package oracle

import (
	"strings"
	"testing"

	"tmisa/internal/mem"
	"tmisa/internal/trace"
)

// mapMem is a final-memory image for the sweep.
type mapMem map[mem.Addr]uint64

func (m mapMem) Load(a mem.Addr) uint64 { return m[a] }

const (
	x = mem.Addr(0x100)
	y = mem.Addr(0x108)
	z = mem.Addr(0x110)
)

func newChecker() *Checker {
	return New(Config{Lazy: true, LineSize: 64})
}

func ev(cpu int, k trace.Kind, a mem.Addr, v uint64) trace.Event {
	return trace.Event{CPU: cpu, Kind: k, Level: 1, Addr: a, Val: v}
}

func feed(c *Checker, events ...trace.Event) {
	for _, e := range events {
		c.Event(e)
	}
}

// TestSerializableHistoryAccepted: T1 reads x and writes y; T2 then reads
// T1's y and writes z. A clean serial chain must pass every check,
// including the final-memory sweep.
func TestSerializableHistoryAccepted(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, y, 2),
		ev(0, trace.Commit, 0, 0),
		ev(1, trace.Begin, 0, 0),
		ev(1, trace.TxLoad, y, 2),
		ev(1, trace.TxStore, z, 3),
		ev(1, trace.Commit, 0, 0),
	)
	final := mapMem{x: 1, y: 2, z: 3}
	if err := c.Finish(final); err != nil {
		t.Fatalf("serializable history rejected: %v", err)
	}
}

// TestWriteSkewCycleRejected: T1 reads x then writes y; T2 reads y then
// writes x, both reading before either commits. Every individual read
// observes a committed value, but no serial order explains the pair —
// the dependency graph is cyclic.
func TestWriteSkewCycleRejected(t *testing.T) {
	c := newChecker()
	feed(c,
		// Learn the initial values so both reads are value-consistent.
		ev(0, trace.NtLoad, x, 1),
		ev(0, trace.NtLoad, y, 2),
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, y, 10),
		ev(1, trace.Begin, 0, 0),
		ev(1, trace.TxLoad, y, 2),
		ev(1, trace.TxStore, x, 20),
		ev(0, trace.Commit, 0, 0),
		ev(1, trace.Commit, 0, 0),
	)
	err := c.Finish(mapMem{x: 20, y: 10})
	pinVerdict(t, "write-skew", err)
	if !strings.Contains(err.Error(), "not conflict-serializable") {
		t.Fatalf("expected a cycle report, got: %v", err)
	}
}

// TestLostUpdateRejected replays the eager-engine bug the oracle was
// built to catch: a transaction holds x in its undo log, a
// non-transactional store to x commits, and the transaction's rollback
// restores the pre-transaction value — clobbering the committed store.
// A later non-transactional read observes the stale value.
func TestLostUpdateRejected(t *testing.T) {
	c := New(Config{Lazy: false, LineSize: 64})
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, x, 2),
		ev(1, trace.NtStore, x, 9), // committed, must survive
		ev(0, trace.Rollback, 0, 0),
		ev(1, trace.NtLoad, x, 1), // undo log restored 1: lost update
	)
	err := c.Finish(mapMem{x: 1})
	pinVerdict(t, "lost-update", err)
	if !strings.Contains(err.Error(), "strong-atomicity") {
		t.Fatalf("expected a strong-atomicity report, got: %v", err)
	}
}

// TestLostUpdateCaughtBySweepAlone: same history but nothing ever reads x
// again — only the final-memory sweep can see the clobber.
func TestLostUpdateCaughtBySweepAlone(t *testing.T) {
	c := New(Config{Lazy: false, LineSize: 64})
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, x, 2),
		ev(1, trace.NtStore, x, 9),
		ev(0, trace.Rollback, 0, 0),
	)
	err := c.Finish(mapMem{x: 1})
	pinVerdict(t, "lost-update-sweep", err)
	if !strings.Contains(err.Error(), "final memory sweep") {
		t.Fatalf("expected a sweep report, got: %v", err)
	}
	// The same history with the committed value intact must pass.
	c2 := New(Config{Lazy: false, LineSize: 64})
	feed(c2,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, x, 2),
		ev(1, trace.NtStore, x, 9),
		ev(0, trace.Rollback, 0, 0),
	)
	if err := c2.Finish(mapMem{x: 9}); err != nil {
		t.Fatalf("clean rollback rejected: %v", err)
	}
}

// TestDirtyReadRejected: a non-transactional read observes another CPU's
// uncommitted speculative value.
func TestDirtyReadRejected(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(1, trace.NtLoad, x, 1), // learn the committed value
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 5),
		ev(1, trace.NtLoad, x, 5), // dirty read of speculative data
	)
	err := c.Finish(nil)
	pinVerdict(t, "dirty-read", err)
	if !strings.Contains(err.Error(), "strong-atomicity") {
		t.Fatalf("expected a strong-atomicity report, got: %v", err)
	}
}

// TestCommittedDirtyReadRejected: a transaction reads another CPU's
// speculative value and then commits — the committed-read check must
// flag it even though the read looked momentarily plausible.
func TestCommittedDirtyReadRejected(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(1, trace.NtLoad, x, 1),
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 5), // never commits before T2 reads
		ev(1, trace.Begin, 0, 0),
		ev(1, trace.TxLoad, x, 5), // observes cpu0's speculative value
		ev(1, trace.Commit, 0, 0),
		ev(0, trace.Rollback, 0, 0),
	)
	err := c.Finish(nil)
	pinVerdict(t, "committed-dirty-read", err)
	if !strings.Contains(err.Error(), "no serialization explains") {
		t.Fatalf("expected an unexplainable-read report, got: %v", err)
	}
}

// TestOwnSpeculativeReadChecked: a transaction must see its own pending
// write; observing anything else is flagged immediately.
func TestOwnSpeculativeReadChecked(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 7),
		ev(0, trace.TxLoad, x, 7),
		ev(0, trace.Commit, 0, 0),
	)
	if err := c.Finish(mapMem{x: 7}); err != nil {
		t.Fatalf("own-write visibility rejected: %v", err)
	}
	c2 := newChecker()
	feed(c2,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 7),
		ev(0, trace.TxLoad, x, 1), // misses its own write
	)
	err := c2.Finish(nil)
	pinVerdict(t, "own-write-visibility", err)
	if !strings.Contains(err.Error(), "own-write visibility") {
		t.Fatalf("expected an own-write report, got: %v", err)
	}
}

// TestClosedNestingMerge: a closed child's reads and writes travel with
// the parent; the merged transaction serializes as one unit.
func TestClosedNestingMerge(t *testing.T) {
	c := newChecker()
	feed(c,
		trace.Event{CPU: 0, Kind: trace.Begin, Level: 1},
		trace.Event{CPU: 0, Kind: trace.TxLoad, Level: 1, Addr: x, Val: 1},
		trace.Event{CPU: 0, Kind: trace.Begin, Level: 2},
		trace.Event{CPU: 0, Kind: trace.TxStore, Level: 2, Addr: y, Val: 4},
		trace.Event{CPU: 0, Kind: trace.TxLoad, Level: 2, Addr: y, Val: 4}, // own write via parent stack
		trace.Event{CPU: 0, Kind: trace.ClosedCommit, Level: 2},
		trace.Event{CPU: 0, Kind: trace.Commit, Level: 1},
	)
	if err := c.Finish(mapMem{x: 1, y: 4}); err != nil {
		t.Fatalf("closed-nesting history rejected: %v", err)
	}
}

// TestOpenCommitPublishesEarly: an open-nested child's commit is visible
// to other CPUs before the parent commits, and refreshes the parent's
// pending view of overlapping words.
func TestOpenCommitPublishesEarly(t *testing.T) {
	c := newChecker()
	feed(c,
		trace.Event{CPU: 0, Kind: trace.Begin, Level: 1},
		trace.Event{CPU: 0, Kind: trace.TxStore, Level: 1, Addr: y, Val: 2},
		trace.Event{CPU: 0, Kind: trace.Begin, Level: 2, Open: true},
		trace.Event{CPU: 0, Kind: trace.TxStore, Level: 2, Open: true, Addr: y, Val: 9},
		trace.Event{CPU: 0, Kind: trace.Commit, Level: 2, Open: true},
		// Another CPU sees the open commit immediately.
		ev(1, trace.NtLoad, y, 9),
		// The parent now reads the open child's value as its own pending one.
		trace.Event{CPU: 0, Kind: trace.TxLoad, Level: 1, Addr: y, Val: 9},
		trace.Event{CPU: 0, Kind: trace.Commit, Level: 1},
	)
	if err := c.Finish(mapMem{y: 9}); err != nil {
		t.Fatalf("open-nesting history rejected: %v", err)
	}
}

// TestImstRollbackCompensation: imst publishes immediately; a rollback
// restores the pre-imst committed value as a fresh committed write, so a
// later read of the restored value is legal.
func TestImstRollbackCompensation(t *testing.T) {
	c := New(Config{Lazy: false, LineSize: 64})
	feed(c,
		ev(1, trace.NtLoad, x, 1),
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.ImStore, x, 5),
		ev(1, trace.NtLoad, x, 5), // immediate visibility
		ev(0, trace.Rollback, 0, 0),
		ev(1, trace.NtLoad, x, 1), // compensated back
	)
	if err := c.Finish(mapMem{x: 1}); err != nil {
		t.Fatalf("imst compensation history rejected: %v", err)
	}
}

// TestImstidSurvivesRollback: imstid publishes with no compensation.
func TestImstidSurvivesRollback(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(1, trace.NtLoad, x, 1),
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.ImStoreID, x, 5),
		ev(0, trace.Rollback, 0, 0),
		ev(1, trace.NtLoad, x, 5),
	)
	if err := c.Finish(mapMem{x: 5}); err != nil {
		t.Fatalf("imstid history rejected: %v", err)
	}
}

// TestReleaseDropsReads: a released read no longer constrains
// serializability — the classic "read, release, someone overwrites,
// we commit anyway" pattern must pass.
func TestReleaseDropsReads(t *testing.T) {
	run := func(withRelease bool) error {
		c := newChecker()
		c.Event(ev(0, trace.NtLoad, x, 1))
		c.Event(ev(0, trace.NtLoad, y, 2))
		c.Event(ev(0, trace.Begin, 0, 0))
		c.Event(ev(0, trace.TxLoad, x, 1))
		c.Event(ev(0, trace.TxStore, y, 10))
		if withRelease {
			c.Event(ev(0, trace.ReleaseEv, mem.LineAddr(x, 64), 0))
		}
		// T2 overwrites x and reads T1's future write target before T1
		// commits: with the read held, the graph is cyclic.
		c.Event(ev(1, trace.Begin, 0, 0))
		c.Event(ev(1, trace.TxStore, x, 20))
		c.Event(ev(1, trace.TxLoad, y, 2))
		c.Event(ev(1, trace.Commit, 0, 0))
		c.Event(ev(0, trace.Commit, 0, 0))
		return c.Finish(mapMem{x: 20, y: 10})
	}
	pinVerdict(t, "unreleased-read-cycle", run(false))
	if err := run(true); err != nil {
		t.Fatalf("released history rejected: %v", err)
	}
}

// TestCycleReportDeterministic: T2 writes x, z, y and q, then commits; T1
// read y before that and overwrites x after; T3 read q before and
// overwrites z after. Two cycles pass through T2, and the report must name
// the same one every time: tmfuzz reproducers and CI's determinism diffs
// compare failure text.
func TestCycleReportDeterministic(t *testing.T) {
	const q = mem.Addr(0x118)
	const want = "committed transactions are not conflict-serializable: dependency cycle " +
		"cpu1 txn#1 [5..10] -> cpu0 txn#1 [1..12] -> cpu1 txn#1 [5..10]"
	for i := 0; i < 100; i++ {
		c := newChecker()
		feed(c,
			ev(0, trace.Begin, 0, 0),
			ev(0, trace.TxLoad, y, 0),
			ev(2, trace.Begin, 0, 0),
			ev(2, trace.TxLoad, q, 0),
			ev(1, trace.Begin, 0, 0),
			ev(1, trace.TxStore, x, 1),
			ev(1, trace.TxStore, z, 1),
			ev(1, trace.TxStore, y, 1),
			ev(1, trace.TxStore, q, 1),
			ev(1, trace.Commit, 0, 0),
			ev(0, trace.TxStore, x, 2),
			ev(0, trace.Commit, 0, 0),
			ev(2, trace.TxStore, z, 2),
			ev(2, trace.Commit, 0, 0),
		)
		if err := c.Finish(nil); err == nil || err.Error() != want {
			t.Fatalf("run %d: cycle report\n got: %v\nwant: %s", i, err, want)
		}
	}
}

// TestOpenFrameAtEnd: a run that ends with a live transaction is broken.
func TestOpenFrameAtEnd(t *testing.T) {
	c := newChecker()
	feed(c, ev(0, trace.Begin, 0, 0))
	pinVerdict(t, "open-frame-at-end", c.Finish(nil))
}

// TestHistoryRetention: with KeepHistory set the checker retains every
// consumed event in order, and HistoryDump renders one line per event —
// the payload failure reports are built from.
func TestHistoryRetention(t *testing.T) {
	c := New(Config{Lazy: true, LineSize: 64, KeepHistory: true})
	events := []trace.Event{
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 2),
		ev(0, trace.Commit, 0, 0),
		ev(1, trace.NtLoad, x, 2),
	}
	feed(c, events...)
	h := c.History()
	if len(h) != len(events) {
		t.Fatalf("history holds %d events, fed %d", len(h), len(events))
	}
	for i := range events {
		if h[i] != events[i] {
			t.Fatalf("history[%d] = %+v, fed %+v", i, h[i], events[i])
		}
	}
	dump := c.HistoryDump()
	if got := strings.Count(dump, "\n"); got != len(events) {
		t.Fatalf("dump has %d lines, want %d:\n%s", got, len(events), dump)
	}
	for _, e := range events {
		if !strings.Contains(dump, e.String()) {
			t.Fatalf("dump lacks event %q:\n%s", e.String(), dump)
		}
	}
}

// TestHistoryOffByDefault: without KeepHistory nothing is retained (long
// runs must not accumulate unbounded state).
func TestHistoryOffByDefault(t *testing.T) {
	c := newChecker()
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxStore, x, 2),
		ev(0, trace.Commit, 0, 0),
	)
	if h := c.History(); h != nil {
		t.Fatalf("history retained %d events with KeepHistory off", len(h))
	}
	if d := c.HistoryDump(); d != "" {
		t.Fatalf("HistoryDump non-empty with KeepHistory off: %q", d)
	}
}

// TestHistorySurvivesFailure: the retained history is still complete and
// renderable after Finish reports a violation — a failing run is exactly
// when the dump matters.
func TestHistorySurvivesFailure(t *testing.T) {
	c := New(Config{Lazy: false, LineSize: 64, KeepHistory: true})
	feed(c,
		ev(0, trace.Begin, 0, 0),
		ev(0, trace.TxLoad, x, 1),
		ev(0, trace.TxStore, x, 2),
		ev(1, trace.NtStore, x, 9),
		ev(0, trace.Rollback, 0, 0),
		ev(1, trace.NtLoad, x, 1), // lost update
	)
	pinVerdict(t, "lost-update-with-history", c.Finish(mapMem{x: 1}))
	if len(c.History()) != 6 {
		t.Fatalf("history holds %d events after failing Finish, want 6", len(c.History()))
	}
	if dump := c.HistoryDump(); strings.Count(dump, "\n") != 6 {
		t.Fatalf("dump incomplete after failure:\n%s", dump)
	}
}

// --- Weak-model axiom checks (Config.Model) ---

// tsoChecker is a checker whose run claims TSO non-transactional
// semantics; relaxedChecker the bounded-reordering model.
func tsoChecker() *Checker     { return New(Config{Lazy: true, LineSize: 64, Model: ModelTSO}) }
func relaxedChecker() *Checker { return New(Config{Lazy: true, LineSize: 64, Model: ModelRelaxed}) }

// expectFail runs Finish, pins the report under name, and asserts it
// mentions want.
func expectFail(t *testing.T, name string, c *Checker, final mapMem, want string) {
	t.Helper()
	err := c.Finish(final)
	pinVerdict(t, name, err)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("expected a failure mentioning %q, got: %v", want, err)
	}
}

// TestSCRejectsBufferedStore: under the SC model a store-buffer
// insertion is impossible — every store performs in place.
func TestSCRejectsBufferedStore(t *testing.T) {
	c := newChecker() // Model zero value = ModelSC
	feed(c, ev(0, trace.NtStoreBuf, x, 1))
	expectFail(t, "sc-buffered-store", c, mapMem{x: 1}, "under the SC model")
}

// TestTSOAcceptsBufferedRoundTrip: insert, forward, drain — the legal
// TSO lifecycle of one store passes every axiom.
func TestTSOAcceptsBufferedRoundTrip(t *testing.T) {
	c := tsoChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.NtLoadFwd, x, 1),
		ev(0, trace.NtStore, x, 1),
	)
	if err := c.Finish(mapMem{x: 1}); err != nil {
		t.Fatalf("legal TSO round trip rejected: %v", err)
	}
}

// TestTSOFIFODrainOrderEnforced: draining the younger of two buffered
// stores first violates TSO's FIFO axiom.
func TestTSOFIFODrainOrderEnforced(t *testing.T) {
	c := tsoChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.NtStoreBuf, y, 2),
		ev(0, trace.NtStore, y, 2), // skips the older x entry
	)
	expectFail(t, "tso-fifo-drain", c, mapMem{x: 1, y: 2}, "FIFO order violated")
}

// TestRelaxedAllowsOutOfOrderDrain: the same skipped drain is legal
// under the relaxed model's cross-word reordering.
func TestRelaxedAllowsOutOfOrderDrain(t *testing.T) {
	c := relaxedChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.NtStoreBuf, y, 2),
		ev(0, trace.NtStore, y, 2),
		ev(0, trace.NtStore, x, 1),
	)
	if err := c.Finish(mapMem{x: 1, y: 2}); err != nil {
		t.Fatalf("legal relaxed out-of-order drain rejected: %v", err)
	}
}

// TestForwardingMandatory: a memory read with a same-word store pending
// in the CPU's own buffer must have forwarded instead.
func TestForwardingMandatory(t *testing.T) {
	c := tsoChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.NtLoad, x, 0),
	)
	expectFail(t, "forwarding-bypassed", c, mapMem{x: 1}, "forwarding bypassed")
}

// TestForwardedValueChecked: a forwarded load must observe the newest
// pending same-word value.
func TestForwardedValueChecked(t *testing.T) {
	c := tsoChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.NtStoreBuf, x, 2),
		ev(0, trace.NtLoadFwd, x, 1), // stale: newest pending is 2
	)
	expectFail(t, "stale-forward", c, mapMem{x: 2}, "newest pending store holds")
}

// TestForwardWithoutPendingRejected: forwarding with nothing buffered
// for the word is impossible on any model.
func TestForwardWithoutPendingRejected(t *testing.T) {
	c := tsoChecker()
	feed(c, ev(0, trace.NtLoadFwd, x, 1))
	expectFail(t, "forward-without-pending", c, mapMem{}, "no pending same-word store")
}

// TestBeginRequiresDrainedBuffer: transactional entry is a fence; a
// begin with stores still buffered breaks the fence discipline.
func TestBeginRequiresDrainedBuffer(t *testing.T) {
	c := tsoChecker()
	feed(c,
		ev(0, trace.NtStoreBuf, x, 1),
		ev(0, trace.Begin, 0, 0),
	)
	expectFail(t, "begin-with-buffered-store", c, mapMem{x: 1}, "xbegin must fence")
}

// TestFinishRequiresDrainedBuffer: a run may not end with stores still
// buffered — program halt is a fence point.
func TestFinishRequiresDrainedBuffer(t *testing.T) {
	c := tsoChecker()
	feed(c, ev(0, trace.NtStoreBuf, x, 1))
	expectFail(t, "halt-with-buffered-store", c, mapMem{}, "halt must fence")
}
