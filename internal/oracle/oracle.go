// Package oracle is a dynamic serializability and strong-atomicity
// checker for the simulated HTM: it consumes the complete memory-event
// stream of one run (transactional loads/stores tagged with nesting
// level, immediate operations, non-transactional accesses, and the
// begin/validate/commit/rollback markers) and decides, after the run,
// whether the execution was correct.
//
// Three families of checks (the properties of Sections 4.1 and 6.1 the
// whole evaluation rests on):
//
//  1. Conflict serializability: the dependency graph over committed
//     transactions — write→write order per word, reads-from edges, and
//     read→overwrite anti-dependencies — must be acyclic.
//  2. Value-explainability: every committed read must have observed the
//     value of the committed version that was current when it executed,
//     and a serial replay of a topological order of the graph must
//     reproduce every committed read. A lost update (a committed write
//     silently clobbered by a rollback) surfaces here, or in the final
//     sweep comparing the committed-state model against actual memory.
//  3. Strong atomicity: a non-transactional read must never observe an
//     uncommitted speculative value, and a non-transactional write must
//     never be silently undone by a transaction's rollback.
//
// The checker trusts the simulation engine's global serialization: events
// arrive in the exact order their effects applied to shared state, so the
// checker can maintain its own committed-state memory (speculative writes
// enter it only at commit, in both engines) and attribute every read to
// the committed version current at that instant.
//
// The checker deliberately does not model two escape hatches whose whole
// point is to break isolation: imld (never checked — software asserts the
// data is private or read-only) and reads dropped by the release
// instruction. Immediate stores are modeled as instant publications with
// (imst) or without (imstid) rollback compensation.
package oracle

import (
	"fmt"
	"slices"
	"strings"

	"tmisa/internal/mem"
	"tmisa/internal/trace"
)

// Config parameterizes a Checker for one run.
type Config struct {
	// Lazy is true for the write-buffer (TCC) engine, false for the
	// eager undo-log engine. It decides how an immediate store interacts
	// with the transaction's own pending writes to the same word.
	Lazy bool
	// LineSize is the cache-line size, the conflict granule the release
	// instruction operates on.
	LineSize int
	// WordTracking narrows the release granule to one word.
	WordTracking bool
	// MaxErrors bounds how many violations are retained (0 = default 16).
	MaxErrors int
	// KeepHistory retains every consumed event so a violation report can
	// include the exact interleaving that produced it. Unbounded — enable
	// it only for bounded runs (tests, the fuzzer), not long simulations.
	KeepHistory bool
	// Model selects the non-transactional memory model the run claims to
	// execute under; the checker validates the store-buffer events against
	// that model's axioms (see Model).
	Model Model
}

// Model is the axiom set for non-transactional accesses (the Chong,
// Sorensen & Wickerson per-architecture models, PAPERS.md). Transactional
// accesses are fully fenced under every model, so the serializability
// machinery is model-independent: a buffered store joins the committed
// state only when it drains (its NtStore event), which is exactly when it
// enters the architected memory order.
type Model int

const (
	// ModelSC admits no store-buffer events at all: every store performs
	// in place at its instruction.
	ModelSC Model = iota
	// ModelTSO requires FIFO drain order and same-word forwarding from
	// the newest pending store (x86-TSO).
	ModelTSO
	// ModelRelaxed allows out-of-order drains across different words but
	// still requires same-word program order and newest-entry forwarding.
	ModelRelaxed
)

func (m Model) String() string {
	switch m {
	case ModelTSO:
		return "tso"
	case ModelRelaxed:
		return "relaxed"
	default:
		return "sc"
	}
}

// maxCPUs bounds the CPU number an event may name. Per-CPU state is
// indexed by CPU, so an event from a corrupt stream must neither index out
// of range nor grow that state without bound: it is reported and skipped.
const maxCPUs = 1 << 16

// sbPend is one store the model says is pending in a CPU's buffer:
// announced by NtStoreBuf, consumed by the matching NtStore drain.
type sbPend struct {
	word mem.Addr
	val  uint64
}

// entity identifies one committed unit in the history: the initial memory
// state (entity 0), a committed transaction, a non-transactional store, an
// immediate store, or a rollback's restoration of an immediate store. Ids
// are dense and issued in order: entity id is commits[id-1].
type entity int32

const initialState entity = 0

// entityKind says what produced an entity. Labels are built from it only
// when a report cites the entity.
type entityKind uint8

const (
	kindTxn entityKind = iota
	kindNtStore
	kindImst
	kindImstID
	kindRestore
)

var kindNames = [...]string{
	kindNtStore: "non-tx store",
	kindImst:    "imst",
	kindImstID:  "imstid",
	kindRestore: "rollback-restore",
}

// version is one committed version of a word. Every version of every word
// lives in Checker.versions in publication order; next chains a word's
// versions from oldest to newest.
type version struct {
	word mem.Addr
	val  uint64
	who  entity // publishing entity
	next int32  // index of the word's next version; -1 while newest
	// valKnown is false only for a rollback's restore of a value the
	// checker never learned (see rollback); the next read defines it.
	valKnown bool
}

// readObs is one external read performed by a (later committed) frame:
// the word, the value the program observed, and the index of the version
// that was current when the read executed.
type readObs struct {
	word mem.Addr
	val  uint64
	seq  int
	ver  int32
}

// undoRec mirrors the hardware undo record the oracle keeps for imst.
type undoRec struct {
	word mem.Addr
	old  uint64
	// oldKnown is false when the committed value of the word was still
	// unknown when the imst executed (never-read, never-written word).
	oldKnown bool
}

// frame is one active nesting level on one CPU. A CPU keeps every frame
// it has used, with its write map and slices, for the next transaction
// at that depth.
type frame struct {
	open     bool
	beginSeq int
	reads    []readObs
	writes   map[mem.Addr]uint64
	imstUndo []undoRec
}

// cpuState is one CPU's live state.
type cpuState struct {
	frames []frame  // active nesting levels, outermost first
	sb     []sbPend // pending stores (weak models), oldest first
	txns   int32    // outermost/open commits so far, for labels
}

// push opens a frame, reusing the one last used at this depth.
func (s *cpuState) push(beginSeq int, open bool) {
	if len(s.frames) == cap(s.frames) {
		s.frames = append(s.frames, frame{})
	} else {
		s.frames = s.frames[:len(s.frames)+1]
	}
	f := &s.frames[len(s.frames)-1]
	if f.writes == nil {
		f.writes = make(map[mem.Addr]uint64)
	} else {
		clear(f.writes)
	}
	f.open, f.beginSeq = open, beginSeq
	f.reads, f.imstUndo = f.reads[:0], f.imstUndo[:0]
}

// pop closes the innermost frame and returns it (nil at depth 0). It
// stays valid until the CPU's next push.
func (s *cpuState) pop() *frame {
	f := s.top()
	if f != nil {
		s.frames = s.frames[:len(s.frames)-1]
	}
	return f
}

func (s *cpuState) top() *frame {
	if len(s.frames) == 0 {
		return nil
	}
	return &s.frames[len(s.frames)-1]
}

// ownSpec looks up the CPU's own speculative value for a word, innermost
// frame first (the lazy engine's write-buffer search; under the eager
// engine, the same value sits in memory in place).
func (s *cpuState) ownSpec(word mem.Addr) (uint64, bool) {
	for i := len(s.frames) - 1; i >= 0; i-- {
		if v, ok := s.frames[i].writes[word]; ok {
			return v, true
		}
	}
	return 0, false
}

// committed is one node of the dependency graph. Its writes are the
// versions it published, versions[firstVer : firstVer+nWrites]: a commit
// publishes its word-sorted write set as one run of versions.
type committed struct {
	kind     entityKind
	cpu      int32
	txn      int32 // the CPU's commit number (kindTxn only)
	firstVer int32
	nWrites  int32
	beginSeq int
	endSeq   int
	reads    []readObs // held in the reads arena
}

// arenaChunk is how many reads one arena chunk holds.
const arenaChunk = 4096

// readArena keeps committed transactions' reads in large chunks, so a
// commit stores its reads without an allocation of its own.
type readArena struct{ chunk []readObs }

func (a *readArena) keep(rs []readObs) []readObs {
	if len(rs) == 0 {
		return nil
	}
	if cap(a.chunk)-len(a.chunk) < len(rs) {
		a.chunk = make([]readObs, 0, max(arenaChunk, len(rs)))
	}
	n := len(a.chunk)
	a.chunk = append(a.chunk, rs...)
	return a.chunk[n:len(a.chunk):len(a.chunk)]
}

// Checker consumes one run's event stream. It is not safe for concurrent
// use; the simulation engine serializes all event emission.
type Checker struct {
	cfg  Config
	seq  int
	cpus []cpuState // grown on demand

	// versions holds every committed version; head maps a word to its
	// newest.
	versions []version
	head     map[mem.Addr]int32
	commits  []committed
	reads    readArena
	words    []mem.Addr // commit scratch: the write set's words, sorted

	errs     []error
	dropped  int
	events   uint64
	finished bool
	history  []trace.Event // every consumed event, when cfg.KeepHistory
}

// New returns a checker for one run.
func New(cfg Config) *Checker {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxErrors == 0 {
		cfg.MaxErrors = 16
	}
	return &Checker{cfg: cfg, head: make(map[mem.Addr]int32)}
}

// granule returns the conflict-detection granule of a word address.
func (c *Checker) granule(a mem.Addr) mem.Addr {
	if c.cfg.WordTracking {
		return mem.WordAlign(a)
	}
	return mem.LineAddr(a, c.cfg.LineSize)
}

func (c *Checker) fail(format string, args ...any) {
	if len(c.errs) >= c.cfg.MaxErrors {
		c.dropped++
		return
	}
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// cpu returns a CPU's state, growing the per-CPU table on first use.
func (c *Checker) cpu(i int) *cpuState {
	if i >= len(c.cpus) {
		c.cpus = append(c.cpus, make([]cpuState, i+1-len(c.cpus))...)
	}
	return &c.cpus[i]
}

// curVersion returns the index of the current version of word, creating
// the initial version on first touch. The read supplies the value of an
// initial version, and of a restore whose value was never learned.
func (c *Checker) curVersion(word mem.Addr, observed uint64) int32 {
	h, ok := c.head[word]
	if !ok {
		return c.publish(word, initialState, observed, true)
	}
	if v := &c.versions[h]; !v.valKnown {
		v.val, v.valKnown = observed, true
	}
	return h
}

// publish appends a committed version of word and returns its index.
func (c *Checker) publish(word mem.Addr, who entity, val uint64, known bool) int32 {
	idx := int32(len(c.versions))
	if h, ok := c.head[word]; ok {
		c.versions[h].next = idx
	}
	c.versions = append(c.versions, version{word: word, val: val, who: who, next: -1, valKnown: known})
	c.head[word] = idx
	return idx
}

// single records an entity that publishes one word at the current event.
// A restore of a value the checker never learned publishes an unknown
// version and writes nothing in the serial replay.
func (c *Checker) single(kind entityKind, cpu int, word mem.Addr, val uint64, known bool) {
	ct := committed{kind: kind, cpu: int32(cpu), firstVer: int32(len(c.versions)), beginSeq: c.seq, endSeq: c.seq}
	if known {
		ct.nWrites = 1
	}
	c.commits = append(c.commits, ct)
	c.publish(word, entity(len(c.commits)), val, known)
}

// writes returns the versions an entity published.
func (c *Checker) writes(ct *committed) []version {
	return c.versions[ct.firstVer : ct.firstVer+ct.nWrites]
}

// Event consumes one event. Events must arrive in the engine's global
// serialization order (the order Machine emits them).
func (c *Checker) Event(e trace.Event) {
	c.seq++
	c.events++
	if c.cfg.KeepHistory {
		c.history = append(c.history, e)
	}
	if e.CPU < 0 || e.CPU >= maxCPUs {
		c.fail("@%d: %s event names cpu %d, outside [0, %d)", c.seq, e.Kind, e.CPU, maxCPUs)
		return
	}
	s := c.cpu(e.CPU)
	switch e.Kind {
	case trace.Begin:
		if len(s.sb) != 0 {
			c.fail("cpu%d @%d: transaction begin with %d store(s) still buffered (xbegin must fence)",
				e.CPU, c.seq, len(s.sb))
		}
		s.push(c.seq, e.Open)
	case trace.TxLoad:
		c.txLoad(s, &e)
	case trace.TxStore:
		if f := s.top(); f != nil {
			f.writes[e.Addr] = e.Val
		} else {
			c.fail("cpu%d: tx-store of %#x outside any transaction frame", e.CPU, uint64(e.Addr))
		}
	case trace.NtLoad:
		c.ntLoad(s, &e)
	case trace.NtStoreBuf:
		c.ntStoreBuf(s, &e)
	case trace.NtLoadFwd:
		c.ntLoadFwd(s, &e)
	case trace.NtStore:
		c.drainMatch(s, &e)
		c.single(kindNtStore, e.CPU, e.Addr, e.Val, true)
	case trace.ImLoad:
		// imld is an explicit isolation escape; never checked.
	case trace.ImStore:
		c.imStore(s, &e)
	case trace.ImStoreID:
		c.single(kindImstID, e.CPU, e.Addr, e.Val, true)
	case trace.ReleaseEv:
		c.release(s, &e)
	case trace.ClosedCommit:
		c.closedCommit(s, &e)
	case trace.Commit:
		c.commit(s, &e)
	case trace.Rollback:
		c.rollback(s, &e)
	case trace.Validate, trace.Abort, trace.Violation, trace.Handler:
		// Lifecycle noise: aborts are followed by Rollback events for the
		// unwound levels; validation, violations and handler runs don't
		// move data.
	}
}

// txLoad checks a transactional read: against the CPU's own speculative
// state when the word is pending in its frame stack (checked immediately
// — own-write visibility must hold even on a doomed attempt), otherwise
// against the committed version current right now (checked when and if
// the frame commits; rolled-back attempts are allowed transient reads).
// Only the latter is recorded: nothing later looks at an own read.
func (c *Checker) txLoad(s *cpuState, e *trace.Event) {
	f := s.top()
	if f == nil {
		c.fail("cpu%d: tx-load of %#x outside any transaction frame", e.CPU, uint64(e.Addr))
		return
	}
	if v, ok := s.ownSpec(e.Addr); ok {
		if v != e.Val {
			c.fail("cpu%d nl%d: transactional read of %#x observed %d, but this CPU's own speculative value is %d (own-write visibility broken)",
				e.CPU, e.Level, uint64(e.Addr), e.Val, v)
		}
		return
	}
	ver := c.curVersion(e.Addr, e.Val)
	f.reads = append(f.reads, readObs{word: e.Addr, val: e.Val, ver: ver, seq: c.seq})
}

// ntLoad checks a non-transactional read immediately: it is its own
// committed unit, so it must observe exactly the current committed value
// (strong atomicity: no dirty reads of speculative data, no reads of
// values a rollback is about to resurrect). It needs no graph node: its
// ordering constraints are already implied by the word's write→write
// chain.
func (c *Checker) ntLoad(s *cpuState, e *trace.Event) {
	for _, pnd := range s.sb {
		if pnd.word == e.Addr {
			c.fail("cpu%d @%d: non-transactional read of %#x went to memory with a same-word store pending in this CPU's buffer (forwarding bypassed)",
				e.CPU, c.seq, uint64(e.Addr))
			break
		}
	}
	if v := c.versions[c.curVersion(e.Addr, e.Val)]; v.val != e.Val {
		c.fail("cpu%d @%d: non-transactional read of %#x observed %d, but the committed value is %d (strong-atomicity violation: dirty or lost-update read)",
			e.CPU, c.seq, uint64(e.Addr), e.Val, v.val)
	}
}

// ntStoreBuf records a store entering a CPU's buffer. The value stays
// private to the CPU (forwarding) until the matching NtStore drain
// publishes it; only then does the committed-state model see it.
func (c *Checker) ntStoreBuf(s *cpuState, e *trace.Event) {
	if c.cfg.Model == ModelSC {
		c.fail("cpu%d @%d: store-buffer insertion of %#x under the SC model (stores must perform in place)",
			e.CPU, c.seq, uint64(e.Addr))
		return
	}
	s.sb = append(s.sb, sbPend{word: e.Addr, val: e.Val})
}

// ntLoadFwd checks a forwarded load: every model that buffers at all
// forwards from the newest pending same-word store, and forwarding with
// nothing pending (in particular under SC) is impossible.
func (c *Checker) ntLoadFwd(s *cpuState, e *trace.Event) {
	for i := len(s.sb) - 1; i >= 0; i-- {
		if s.sb[i].word == e.Addr {
			if s.sb[i].val != e.Val {
				c.fail("cpu%d @%d: forwarded read of %#x observed %d, but the newest pending store holds %d",
					e.CPU, c.seq, uint64(e.Addr), e.Val, s.sb[i].val)
			}
			return
		}
	}
	c.fail("cpu%d @%d: forwarded read of %#x with no pending same-word store in this CPU's buffer",
		e.CPU, c.seq, uint64(e.Addr))
}

// drainMatch validates a performing non-transactional store against the
// CPU's pending-store buffer. An empty buffer means a fenced direct
// store (legal under every model — e.g. the fallback-lock word after its
// fence); a non-empty buffer means this store must be a drain: it has to
// match a pending entry — the oldest one under TSO's FIFO axiom, the
// oldest same-word entry under the relaxed model — which it consumes.
func (c *Checker) drainMatch(s *cpuState, e *trace.Event) {
	buf := s.sb
	if len(buf) == 0 {
		return
	}
	idx := -1
	for i, pnd := range buf {
		if pnd.word == e.Addr {
			idx = i // first match = oldest same-word entry
			break
		}
	}
	if idx < 0 {
		c.fail("cpu%d @%d: non-transactional store of %#x performed while %d unrelated store(s) sit buffered (a direct store requires an empty buffer)",
			e.CPU, c.seq, uint64(e.Addr), len(buf))
		return
	}
	if buf[idx].val != e.Val {
		c.fail("cpu%d @%d: drain of %#x stored %d, but the buffered value is %d",
			e.CPU, c.seq, uint64(e.Addr), e.Val, buf[idx].val)
	}
	if c.cfg.Model == ModelTSO && idx != 0 {
		c.fail("cpu%d @%d: TSO drain of %#x skipped %d older buffered store(s) (FIFO order violated)",
			e.CPU, c.seq, uint64(e.Addr), idx)
	}
	s.sb = append(buf[:idx], buf[idx+1:]...)
}

// imStore models imst: an instant publication that a rollback of the
// surrounding transaction will undo. The oracle's undo record holds the
// committed value (the FILO composition of hardware undo logs restores
// exactly that when every level unwinds).
func (c *Checker) imStore(s *cpuState, e *trace.Event) {
	word, val := e.Addr, e.Val
	if f := s.top(); f != nil {
		u := undoRec{word: word}
		if h, ok := c.head[word]; ok && c.versions[h].valKnown {
			u.old, u.oldKnown = c.versions[h].val, true
		}
		f.imstUndo = append(f.imstUndo, u)
		if !c.cfg.Lazy {
			// Eager engine: the store lands in the same in-place cell the
			// transaction's own writes occupy, so it supersedes any pending
			// transactional value for the word (commit republishes it).
			for i := range s.frames {
				if _, ok := s.frames[i].writes[word]; ok {
					s.frames[i].writes[word] = val
				}
			}
		}
	}
	c.single(kindImst, e.CPU, word, val, true)
}

// release drops recorded reads of the released granule from the innermost
// frame: the program asserted those reads need no isolation.
func (c *Checker) release(s *cpuState, e *trace.Event) {
	f := s.top()
	if f == nil {
		return
	}
	out := f.reads[:0]
	for _, r := range f.reads {
		if c.granule(r.word) != e.Addr {
			out = append(out, r)
		}
	}
	f.reads = out
}

// closedCommit merges the innermost frame into its parent, mirroring
// tm.MergeClosedInto: the child's reads, writes (child value wins), and
// imst undo records all become the parent's.
func (c *Checker) closedCommit(s *cpuState, e *trace.Event) {
	if len(s.frames) < 2 {
		c.fail("cpu%d: closed-commit at depth %d", e.CPU, len(s.frames))
		s.frames = s.frames[:0]
		return
	}
	child := s.pop()
	parent := s.top()
	parent.reads = append(parent.reads, child.reads...)
	for w, v := range child.writes {
		parent.writes[w] = v
	}
	parent.imstUndo = append(parent.imstUndo, child.imstUndo...)
}

// commit publishes an outermost or open-nested frame: it becomes a node
// of the dependency graph and its writes become the new committed
// versions. An open-nested commit also refreshes ancestor frames' pending
// values for the words it published (both engines leave the child's value
// in place for ancestors, per tm.ApplyOpenCommitToAncestors).
func (c *Checker) commit(s *cpuState, e *trace.Event) {
	f := s.pop()
	if f == nil {
		c.fail("cpu%d: commit with no open frame", e.CPU)
		return
	}
	s.txns++
	c.commits = append(c.commits, committed{
		kind: kindTxn, cpu: int32(e.CPU), txn: s.txns,
		firstVer: int32(len(c.versions)), nWrites: int32(len(f.writes)),
		beginSeq: f.beginSeq, endSeq: c.seq, reads: c.reads.keep(f.reads),
	})
	id := entity(len(c.commits))
	c.checkCommittedReads(id)

	c.words = c.words[:0]
	for w := range f.writes {
		c.words = append(c.words, w)
	}
	slices.Sort(c.words)
	for _, w := range c.words {
		c.publish(w, id, f.writes[w], true)
	}
	if f.open {
		for i := range s.frames {
			anc := &s.frames[i]
			for w, v := range f.writes {
				if _, ok := anc.writes[w]; ok {
					anc.writes[w] = v
				}
			}
		}
		// Ancestors' imst undo records for words this open commit made
		// permanent must now restore the committed values, mirroring
		// tm.ApplyOpenCommitToAncestors' undo-log rewrite: an enclosing
		// rollback no longer undoes what the open child committed.
		for _, u := range f.imstUndo {
			last := c.versions[c.head[u.word]]
			for i := range s.frames {
				undo := s.frames[i].imstUndo
				for j := range undo {
					if undo[j].word == u.word {
						undo[j].old, undo[j].oldKnown = last.val, last.valKnown
					}
				}
			}
		}
	}
}

// checkCommittedReads is check 2's first half: every external read of a
// now-committed transaction must match the version that was current when
// it executed. A mismatch means no serialization can explain the read —
// the signature of a lost update or a dirty read that made it to commit.
func (c *Checker) checkCommittedReads(id entity) {
	for _, r := range c.commits[id-1].reads {
		v := c.versions[r.ver]
		if !v.valKnown || v.val == r.val {
			continue
		}
		c.fail("%s: committed read of %#x @%d observed %d, but the then-current committed version (%s) holds %d — no serialization explains it",
			c.describe(id), uint64(r.word), r.seq, r.val, c.describe(v.who), v.val)
	}
}

// rollback discards the innermost frame and republishes the values its
// imst undo records restore (in reverse, like the hardware log). When the
// word had no committed value before the imst, the restore writes a value
// the oracle never learned: it publishes an unknown-valued version so the
// imst's publication stops being the word's last word — the final sweep
// skips it, and the next read (if any) defines it, exactly like an
// initial version.
func (c *Checker) rollback(s *cpuState, e *trace.Event) {
	f := s.pop()
	if f == nil {
		c.fail("cpu%d: rollback with no open frame", e.CPU)
		return
	}
	for i := len(f.imstUndo) - 1; i >= 0; i-- {
		u := f.imstUndo[i]
		c.single(kindRestore, e.CPU, u.word, u.old, u.oldKnown)
	}
}

// describe labels an entity for a report.
func (c *Checker) describe(id entity) string {
	if id == initialState {
		return "initial state"
	}
	ct := &c.commits[id-1]
	if ct.kind == kindTxn {
		return fmt.Sprintf("cpu%d txn#%d [%d..%d]", ct.cpu, ct.txn, ct.beginSeq, ct.endSeq)
	}
	return fmt.Sprintf("cpu%d %s @%d", ct.cpu, kindNames[ct.kind], ct.beginSeq)
}

// Events returns how many events the checker consumed.
func (c *Checker) Events() uint64 { return c.events }

// History returns the retained event stream (nil unless Config.KeepHistory
// was set). The slice is the checker's own storage; do not mutate it.
func (c *Checker) History() []trace.Event { return c.history }

// HistoryDump renders the retained events one per line, the failure-report
// form a violation is dumped with. Empty when history is off.
func (c *Checker) HistoryDump() string {
	var b strings.Builder
	for _, e := range c.history {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Errors returns the violations found so far (complete only after Finish).
func (c *Checker) Errors() []error { return c.errs }

// MemReader is the slice of mem.Memory the final sweep needs.
type MemReader interface {
	Load(mem.Addr) uint64
}

// Finish runs the end-of-run checks — dependency-graph acyclicity, the
// serial replay, and the final-memory sweep — and returns the first
// violation found anywhere in the run, or nil if the history is clean.
// final may be nil to skip the memory sweep (unit-test histories).
func (c *Checker) Finish(final MemReader) error {
	if !c.finished {
		c.finished = true
		for cpu := range c.cpus {
			if n := len(c.cpus[cpu].frames); n != 0 {
				c.fail("cpu%d: run ended with %d transaction frame(s) still open", cpu, n)
			}
		}
		for cpu := range c.cpus {
			if n := len(c.cpus[cpu].sb); n != 0 {
				c.fail("cpu%d: run ended with %d store(s) still buffered (halt must fence)", cpu, n)
			}
		}
		order, cycle := c.topoOrder()
		if cycle != nil {
			c.fail("committed transactions are not conflict-serializable: dependency cycle %s", c.cycleString(cycle))
		} else {
			c.replay(order)
		}
		if final != nil {
			c.sweep(final)
		}
	}
	if len(c.errs) == 0 {
		return nil
	}
	if len(c.errs) == 1 && c.dropped == 0 {
		return c.errs[0]
	}
	return fmt.Errorf("%d violation(s), first: %v", len(c.errs)+c.dropped, c.errs[0])
}

// graph is the dependency graph in compressed form: entity id's
// successors are to[off[id]:off[id+1]], in the order edges found them.
type graph struct {
	off []int32
	to  []entity
}

func (g graph) succ(id entity) []entity { return g.to[g.off[id]:g.off[id+1]] }

// edges builds the dependency graph: WW edges along each word's version
// chain, in publication order, then each committed transaction's WR
// reads-from and RW anti-dependency edges, in commit order. The fixed
// order makes a cycle report a function of the history alone.
//
// One class of anti-dependency is exempt: a read overwritten by an entity
// the reader itself published mid-flight — an open-nested child's commit,
// an immediate store, or a rollback's imst restore, all on the same CPU
// and nested inside the reader's span. The architecture deliberately
// publishes those without violating their own ancestors (a CPU's commits
// never conflict with itself), so the enclosing transaction legitimately
// holds reads that predate them. Section 4's open nesting forfeits exactly
// this much isolation; everything else still serializes.
func (c *Checker) edges() graph {
	var from, to []entity
	add := func(a, b entity) {
		if a != b && a != initialState && b != initialState {
			from, to = append(from, a), append(to, b)
		}
	}
	for _, v := range c.versions {
		if v.next >= 0 {
			add(v.who, c.versions[v.next].who)
		}
	}
	for i := range c.commits {
		id := entity(i + 1)
		for _, r := range c.commits[i].reads {
			v := c.versions[r.ver]
			add(v.who, id) // reads-from
			if v.next >= 0 {
				if over := c.versions[v.next].who; !c.ownNested(id, over) {
					add(id, over) // anti-dependency
				}
			}
		}
	}
	g := graph{off: make([]int32, len(c.commits)+2), to: make([]entity, len(to))}
	for _, a := range from {
		g.off[a+1]++
	}
	for i := 1; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	fill := slices.Clone(g.off)
	for i, a := range from {
		g.to[fill[a]] = to[i]
		fill[a]++
	}
	return g
}

// ownNested reports whether who is an entity the committed transaction id
// itself produced mid-flight: same CPU, span nested inside id's span.
// Used to exempt self-inflicted anti-dependencies (see edges).
func (c *Checker) ownNested(id, who entity) bool {
	if who == initialState || who == id {
		return false
	}
	ct, other := &c.commits[id-1], &c.commits[who-1]
	return other.cpu == ct.cpu && other.beginSeq >= ct.beginSeq && other.endSeq <= ct.endSeq
}

// idHeap is Kahn's ready set: a min-heap of entity ids.
type idHeap []entity

func (h *idHeap) push(id entity) {
	s := append(*h, id)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *idHeap) pop() entity {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(s) {
			break
		}
		if r := m + 1; r < len(s) && s[r] < s[m] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// topoOrder returns a deterministic topological order of the committed
// entities — Kahn's algorithm, always taking the smallest ready id, that
// is the earliest-created entity — or a cycle if the graph is not a DAG.
func (c *Checker) topoOrder() (order, cycle []entity) {
	g := c.edges()
	indeg := make([]int32, len(c.commits)+1)
	for _, to := range g.to {
		indeg[to]++
	}
	var ready idHeap
	for id := 1; id < len(indeg); id++ {
		if indeg[id] == 0 {
			ready = append(ready, entity(id)) // ascending: already a heap
		}
	}
	order = make([]entity, 0, len(c.commits))
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, to := range g.succ(id) {
			if indeg[to]--; indeg[to] == 0 {
				ready.push(to)
			}
		}
	}
	if len(order) == len(c.commits) {
		return order, nil
	}
	return nil, findCycle(g, indeg)
}

// findCycle extracts one cycle from the residual graph (nodes with
// nonzero in-degree after Kahn). The residual also contains nodes merely
// downstream of a cycle, so it is first pruned in reverse: nodes with no
// outgoing edge into the residual cannot be on a cycle and are removed
// until a fixpoint. Every surviving node then has a residual successor,
// so the forward walk from the smallest surviving id, always taking the
// first residual successor, must close a true cycle.
func findCycle(g graph, indeg []int32) []entity {
	residual := make([]bool, len(indeg))
	for id, d := range indeg {
		residual[id] = d > 0
	}
	for changed := true; changed; {
		changed = false
		for id := range residual {
			if residual[id] && !slices.ContainsFunc(g.succ(entity(id)), func(to entity) bool { return residual[to] }) {
				residual[id] = false
				changed = true
			}
		}
	}
	start := entity(slices.Index(residual, true))
	if start <= 0 {
		// Unreachable: an incomplete Kahn order implies a cycle, and cycle
		// members always survive the pruning. Keep the failure visible.
		return []entity{}
	}
	// Walk forward inside the residual set until a node repeats.
	seen := make(map[entity]int)
	var path []entity
	for cur := start; ; {
		if at, ok := seen[cur]; ok {
			return path[at:]
		}
		seen[cur] = len(path)
		path = append(path, cur)
		next := slices.IndexFunc(g.succ(cur), func(to entity) bool { return residual[to] })
		if next < 0 {
			return path // defensive; should not happen in a true cycle
		}
		cur = g.succ(cur)[next]
	}
}

func (c *Checker) cycleString(cycle []entity) string {
	s := ""
	for i, id := range cycle {
		if i > 0 {
			s += " -> "
		}
		s += c.describe(id)
	}
	if len(cycle) > 0 {
		s += " -> " + c.describe(cycle[0])
	}
	return s
}

// replay is check 2's second half: execute the topological order serially
// against a shadow memory and confirm every committed read reproduces.
// With checks 1 and 2a passing this must succeed; a failure here means
// the version accounting itself missed something.
func (c *Checker) replay(order []entity) {
	type cell struct {
		val uint64
		who entity // last writer in the serial order
	}
	shadow := make(map[mem.Addr]cell, len(c.head))
	for _, v := range c.versions {
		if v.who == initialState {
			shadow[v.word] = cell{val: v.val}
		}
	}
	for _, id := range order {
		ct := &c.commits[id-1]
		for _, r := range ct.reads {
			want, ok := shadow[r.word]
			if !ok {
				continue // word with unknown initial value
			}
			if want.val != r.val {
				// A mismatch against the reader's own mid-flight publication
				// (open-nested child commit, imst, rollback restore) is the
				// isolation open nesting deliberately gives up — the same
				// exemption edges() applies to anti-dependencies.
				if c.ownNested(id, want.who) {
					continue
				}
				c.fail("serial replay: %s read %#x as %d, but the serial order produces %d",
					c.describe(id), uint64(r.word), r.val, want.val)
				return
			}
		}
		for _, v := range c.writes(ct) {
			shadow[v.word] = cell{val: v.val, who: id}
		}
	}
}

// sweep is check 3's second half: the final memory image must equal the
// committed state for every word the run touched. A non-transactional
// store clobbered by an undo-log rollback (the lost-update bug) leaves
// memory behind the committed state even if nothing read the word again.
func (c *Checker) sweep(final MemReader) {
	words := make([]mem.Addr, 0, len(c.head))
	for w := range c.head {
		words = append(words, w)
	}
	slices.Sort(words)
	for _, w := range words {
		last := c.versions[c.head[w]]
		if !last.valKnown {
			continue
		}
		if got := final.Load(w); got != last.val {
			c.fail("final memory sweep: word %#x holds %d, but the last committed write (%s) stored %d (lost update or rollback clobber)",
				uint64(w), got, c.describe(last.who), last.val)
		}
	}
}
