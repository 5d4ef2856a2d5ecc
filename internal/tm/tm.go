// Package tm implements the transactional-state bookkeeping of the HTM:
// the Transaction Control Block (TCB) stack, per-nesting-level read- and
// write-sets, speculative versioning (the write-buffer of the lazy/TCC
// engine and the undo-log of the eager/LogTM-style engine), and the
// set-intersection logic behind conflict detection and the two open-nesting
// semantics (the paper's, and Moss–Hosking's for the ablation).
//
// Package core drives this state machine from the ISA level and owns
// timing; everything here is pure data-structure logic so it can be tested
// exhaustively in isolation.
package tm

import (
	"fmt"

	"tmisa/internal/mem"
)

// Status is the lifecycle state recorded in a transaction's xstatus word.
type Status int

const (
	Active Status = iota
	Validated
	Committed
	Aborted
)

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Validated:
		return "validated"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Mode is the execution mode of a level: hardware transaction (the
// default), or one of the hybrid engine's STM fallback paths. The mode
// changes how core versions data and charges instrumentation; the
// conflict-set logic here is mode-blind — STM levels record read- and
// write-sets exactly like hardware ones, which is what lets hardware
// conflict detection see them.
type Mode int

const (
	// HTM is a hardware transaction.
	HTM Mode = iota
	// Serial is the serial-irrevocable global-lock fallback: in-place
	// stores with an undo log, validated (irrevocable) from birth.
	Serial
	// TL2 is the versioned-lock software fallback: untracked in the
	// cache (unbounded footprint) and paying per-access instrumentation.
	TL2
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case TL2:
		return "tl2"
	default:
		return "htm"
	}
}

// UndoRec is one undo-log entry: the word's value before the first write
// by a given nesting level (eager engine), or before an immediate store
// (both engines).
type UndoRec struct {
	Addr mem.Addr // word address
	Old  uint64
}

// Level is the transactional state of one nesting level: the speculative
// half of its TCB (Figure 2). The register checkpoint is realized by
// re-executing the level's closure; the handler stacks live in package
// core's Tx handle (with their costs charged per the paper's constants).
type Level struct {
	// NL is the 1-based nesting level.
	NL int
	// Open marks an open-nested transaction (xbegin_open).
	Open   bool
	Status Status
	// Mode is HTM for hardware transactions; the hybrid engine's
	// fallback paths set Serial or TL2 on outermost levels only (nested
	// transactions inside a fallback body are subsumed).
	Mode Mode

	// ReadSet and WriteSet hold cache-line addresses, the conflict
	// granularity of the paper's platform. They are allocated on first
	// use (nil means empty, which every reader of a Go map handles), so
	// a level only pays for the sets it actually populates, and kept
	// across the transactions Stack reuses the level for.
	ReadSet  map[mem.Addr]struct{}
	WriteSet map[mem.Addr]struct{}

	// WBuf is the lazy engine's write-buffer: word address → speculative
	// value. Allocated on first buffered write, so eager-engine levels
	// (and read-only lazy levels) never carry one.
	WBuf map[mem.Addr]uint64

	// Undo is the eager engine's undo-log for this level, in program
	// order (rollback applies it in reverse). It also holds undo records
	// for imst immediate stores in both engines.
	Undo []UndoRec
	// undoLogged tracks which words this level has already logged, so
	// only the first write per level logs (the paper: "when a nested
	// transaction writes a cache line for the first time, we push the
	// previous value").
	undoLogged map[mem.Addr]struct{}

	// StartCycle is when xbegin executed, for wasted-work accounting.
	StartCycle uint64
}

// NewLevel creates an empty level. The set, buffer, and log maps are
// allocated lazily by the first recording call.
func NewLevel(nl int, open bool, start uint64) *Level {
	return &Level{NL: nl, Open: open, StartCycle: start}
}

// reset empties the level for the next transaction at its depth. The
// maps keep their storage and the undo log its capacity, so a level
// that has grown to its workload's footprint records without allocating
// (transaction-dense workloads execute millions of xbegins per run).
func (l *Level) reset(open bool, start uint64) {
	l.Open, l.Status, l.Mode, l.StartCycle = open, Active, HTM, start
	clear(l.ReadSet)
	clear(l.WriteSet)
	clear(l.WBuf)
	clear(l.undoLogged)
	l.Undo = l.Undo[:0]
}

// RecordRead adds a line to the read-set.
func (l *Level) RecordRead(line mem.Addr) {
	if l.ReadSet == nil {
		l.ReadSet = make(map[mem.Addr]struct{})
	}
	l.ReadSet[line] = struct{}{}
}

// RecordWrite adds a line to the write-set.
func (l *Level) RecordWrite(line mem.Addr) {
	if l.WriteSet == nil {
		l.WriteSet = make(map[mem.Addr]struct{})
	}
	l.WriteSet[line] = struct{}{}
}

// Release removes a line from the read-set (the release instruction). It
// reports whether the line was present.
func (l *Level) Release(line mem.Addr) bool {
	_, ok := l.ReadSet[line]
	delete(l.ReadSet, line)
	return ok
}

// BufferWrite stores a speculative value in the write-buffer (lazy).
func (l *Level) BufferWrite(word mem.Addr, v uint64) {
	if l.WBuf == nil {
		l.WBuf = make(map[mem.Addr]uint64)
	}
	l.WBuf[word] = v
}

// LogUndo records the old value of word if this level has not logged it
// yet (eager engine and imst). It reports whether a record was pushed.
func (l *Level) LogUndo(word mem.Addr, old uint64) bool {
	if _, done := l.undoLogged[word]; done {
		return false
	}
	if l.undoLogged == nil {
		l.undoLogged = make(map[mem.Addr]struct{})
	}
	l.undoLogged[word] = struct{}{}
	l.Undo = append(l.Undo, UndoRec{Addr: word, Old: old})
	return true
}

// HasLogged reports whether this level already holds an undo record for
// word.
func (l *Level) HasLogged(word mem.Addr) bool {
	_, ok := l.undoLogged[word]
	return ok
}

// UpdateUndo rewrites the restore-value of this level's record for word,
// used when an open-nested child commits a word an ancestor also wrote
// (Section 6.3.1: "we must update the log entry of the parent").
func (l *Level) UpdateUndo(word mem.Addr, v uint64) bool {
	found := false
	for i := range l.Undo {
		if l.Undo[i].Addr == word {
			l.Undo[i].Old = v
			found = true
		}
	}
	return found
}

// Footprint returns the combined number of distinct lines in the read- and
// write-sets, for capacity statistics.
func (l *Level) Footprint() int {
	n := len(l.ReadSet)
	for a := range l.WriteSet {
		if _, dup := l.ReadSet[a]; !dup {
			n++
		}
	}
	return n
}

// Stack is a processor's TCB stack: one Level per active nested
// transaction, outermost first. Pop leaves the level in Levels' backing
// array, past its length, and the next Push to that depth resets and
// reuses it: a popped level stays readable only until then.
type Stack struct {
	Levels []*Level
}

// Depth returns the current nesting depth (0 = not in a transaction).
func (s *Stack) Depth() int { return len(s.Levels) }

// Top returns the innermost level, or nil.
func (s *Stack) Top() *Level {
	if len(s.Levels) == 0 {
		return nil
	}
	return s.Levels[len(s.Levels)-1]
}

// At returns the level with 1-based nesting level nl.
func (s *Stack) At(nl int) *Level { return s.Levels[nl-1] }

// Push starts a nested transaction and returns its level, reusing the
// level this depth last held.
func (s *Stack) Push(open bool, start uint64) *Level {
	n := len(s.Levels)
	if n < cap(s.Levels) {
		if l := s.Levels[:n+1][n]; l != nil {
			l.reset(open, start)
			s.Levels = s.Levels[:n+1]
			return l
		}
	}
	l := NewLevel(n+1, open, start)
	s.Levels = append(s.Levels, l)
	return l
}

// Pop removes the innermost level.
func (s *Stack) Pop() *Level {
	l := s.Top()
	if l == nil {
		panic("tm: Pop of empty TCB stack")
	}
	s.Levels = s.Levels[:len(s.Levels)-1]
	return l
}

// LookupSpec searches the write-buffers from innermost to outermost for a
// speculative value of word (lazy engine reads see their own and their
// ancestors' writes).
func (s *Stack) LookupSpec(word mem.Addr) (uint64, bool) {
	for i := len(s.Levels) - 1; i >= 0; i-- {
		if v, ok := s.Levels[i].WBuf[word]; ok {
			return v, true
		}
	}
	return 0, false
}

// ConflictMask returns a bitmask with bit (nl-1) set for every active
// level whose read-set or write-set intersects lines; this is the value
// hardware ORs into the victim's xvcurrent/xvpending registers
// (Section 4.6). Open levels are just as vulnerable as closed ones.
func (s *Stack) ConflictMask(lines map[mem.Addr]struct{}) uint32 {
	var mask uint32
	for _, l := range s.Levels {
		if l.Status != Active && l.Status != Validated {
			continue
		}
		if intersects(l.ReadSet, lines) || intersects(l.WriteSet, lines) {
			mask |= 1 << (l.NL - 1)
		}
	}
	return mask
}

// ConflictsWithLine reports whether any active level's read- or write-set
// contains the line, and the union mask of the levels that do. Used by the
// eager engine's per-access checks.
func (s *Stack) ConflictsWithLine(line mem.Addr, writersOnly bool) uint32 {
	var mask uint32
	for _, l := range s.Levels {
		if l.Status != Active && l.Status != Validated {
			continue
		}
		_, w := l.WriteSet[line]
		hit := w
		if !writersOnly {
			_, r := l.ReadSet[line]
			hit = hit || r
		}
		if hit {
			mask |= 1 << (l.NL - 1)
		}
	}
	return mask
}

func intersects(a, b map[mem.Addr]struct{}) bool {
	// Iterate the smaller set.
	if len(b) < len(a) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

// MergeClosedInto implements the closed-nested commit (Section 4.5,
// timeline step ❶❷): the child's speculative writes and read-/write-sets
// merge into the parent, and no update escapes to shared memory. The undo
// log is appended so an eventual parent rollback restores in FILO order
// ("log entries are automatically appended to those of its parent").
// It returns the number of lines merged, for the timing model.
func MergeClosedInto(parent, child *Level) int {
	merged := len(child.ReadSet) + len(child.WriteSet)
	for a := range child.ReadSet {
		parent.RecordRead(a)
	}
	for a := range child.WriteSet {
		parent.RecordWrite(a)
	}
	for w, v := range child.WBuf {
		parent.BufferWrite(w, v)
	}
	parent.Undo = append(parent.Undo, child.Undo...)
	if len(child.undoLogged) > 0 && parent.undoLogged == nil {
		parent.undoLogged = make(map[mem.Addr]struct{})
	}
	for w := range child.undoLogged {
		// The parent now owns the child's log records; mark the words so
		// the parent does not log a second (younger, wrong) record after
		// absorbing the child... it must still log words it never wrote.
		parent.undoLogged[w] = struct{}{}
	}
	return merged
}

// OpenSemantics selects how an open-nested commit treats ancestor sets.
type OpenSemantics int

const (
	// PaperOpen is this paper's semantics: ancestors whose read- or
	// write-set overlaps the child's write-set get their buffered data
	// updated, but no address is removed from any ancestor set and no
	// conflict is reported to them.
	PaperOpen OpenSemantics = iota
	// MossHoskingOpen is the alternative the paper argues against: the
	// committing child removes the lines it wrote from all ancestors'
	// read- and write-sets (an early-release mechanism). The A3 ablation
	// demonstrates the resulting atomicity anomaly.
	MossHoskingOpen
)

func (s OpenSemantics) String() string {
	if s == PaperOpen {
		return "paper"
	}
	return "moss-hosking"
}

// ApplyOpenCommitToAncestors updates every ancestor level (all levels
// below child on the stack) for the open-nested child's commit, per the
// selected semantics. committedValue returns the value the child made
// globally visible for a word (the child's write-buffer entry in the lazy
// engine; the current memory value in the eager engine, where the write
// already landed). It returns the number of undo entries rewritten (the
// Section 6.3.1 "expensive search" cost, charged by core).
func ApplyOpenCommitToAncestors(stack *Stack, child *Level, sem OpenSemantics, committedValue func(mem.Addr) uint64) int {
	rewrites := 0
	ancestors := stack.Levels[:child.NL-1]
	switch sem {
	case PaperOpen:
		for word := range child.WBuf {
			for _, anc := range ancestors {
				if _, ok := anc.WBuf[word]; ok {
					anc.WBuf[word] = committedValue(word)
				}
			}
		}
		// Eager engine: ancestors' undo records for words the child
		// committed must now restore the child's (permanent) values.
		for i := range child.Undo {
			word := child.Undo[i].Addr
			for _, anc := range ancestors {
				if anc.UpdateUndo(word, committedValue(word)) {
					rewrites++
				}
			}
		}
	case MossHoskingOpen:
		for line := range child.WriteSet {
			for _, anc := range ancestors {
				delete(anc.ReadSet, line)
				delete(anc.WriteSet, line)
			}
		}
		// Moss–Hosking also has to keep ancestor data coherent for the
		// words that remain buffered.
		for word := range child.WBuf {
			for _, anc := range ancestors {
				if _, ok := anc.WBuf[word]; ok {
					anc.WBuf[word] = committedValue(word)
				}
			}
		}
	}
	return rewrites
}
