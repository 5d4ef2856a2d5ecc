package tm

import (
	"testing"
	"testing/quick"

	"tmisa/internal/mem"
)

func line(a mem.Addr) mem.Addr { return mem.LineAddr(a, 64) }

func TestStackPushPop(t *testing.T) {
	var s Stack
	if s.Depth() != 0 || s.Top() != nil {
		t.Fatal("fresh stack not empty")
	}
	l1 := s.Push(false, 10)
	l2 := s.Push(true, 20)
	if s.Depth() != 2 || s.Top() != l2 || s.At(1) != l1 {
		t.Fatal("stack shape wrong")
	}
	if l1.NL != 1 || l2.NL != 2 || !l2.Open || l1.Open {
		t.Fatalf("levels wrong: %+v %+v", l1, l2)
	}
	if s.Pop() != l2 || s.Depth() != 1 {
		t.Fatal("pop wrong")
	}
}

// TestPushReusesPoppedLevel: the next Push to a depth hands back that
// depth's last level, emptied and re-stamped, with nothing of the
// previous transaction left in its sets, buffer or undo log.
func TestPushReusesPoppedLevel(t *testing.T) {
	var s Stack
	s.Push(false, 1)
	old := s.Push(false, 2)
	old.RecordRead(line(0x100))
	old.RecordWrite(line(0x200))
	old.BufferWrite(0x208, 7)
	old.LogUndo(0x300, 9)
	old.Status, old.Mode = Committed, TL2
	s.Pop()
	l := s.Push(true, 30)
	if l != old {
		t.Fatal("Push at a previously reached depth allocated a new level")
	}
	if l.NL != 2 || !l.Open || l.Status != Active || l.Mode != HTM || l.StartCycle != 30 {
		t.Fatalf("reused level not re-stamped: %+v", l)
	}
	if len(l.ReadSet)+len(l.WriteSet)+len(l.WBuf)+len(l.Undo) != 0 || l.HasLogged(0x300) {
		t.Fatalf("reused level kept the previous transaction's state: %+v", l)
	}
	if !l.LogUndo(0x300, 1) {
		t.Fatal("reused level refused the first undo record for a word")
	}
}

// TestWarmStackCycleAllocatesNothing: once a depth has run a transaction
// of some footprint, the next one there of the same footprint records
// into the reused level's storage and allocates nothing.
func TestWarmStackCycleAllocatesNothing(t *testing.T) {
	var s Stack
	cycle := func() {
		for depth := 0; depth < 2; depth++ {
			l := s.Push(false, 0)
			for a := mem.Addr(0); a < 16; a++ {
				l.RecordRead(line(a * 64))
				l.RecordWrite(line(a*64 + 4096))
				l.BufferWrite(a*8, uint64(a))
				l.LogUndo(a*8+8192, uint64(a))
			}
		}
		s.Pop()
		s.Pop()
	}
	cycle() // warm-up: levels and their storage grow to the footprint
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warmed Push..Pop cycle made %v allocations, want 0", n)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var s Stack
	s.Pop()
}

func TestLookupSpecSeesInnermostVersion(t *testing.T) {
	var s Stack
	outer := s.Push(false, 0)
	inner := s.Push(false, 0)
	outer.BufferWrite(0x100, 1)
	if v, ok := s.LookupSpec(0x100); !ok || v != 1 {
		t.Fatal("child cannot see ancestor write")
	}
	inner.BufferWrite(0x100, 2)
	if v, _ := s.LookupSpec(0x100); v != 2 {
		t.Fatal("innermost version not preferred")
	}
	if _, ok := s.LookupSpec(0x200); ok {
		t.Fatal("phantom speculative value")
	}
}

func TestReleaseRemovesFromReadSetOnly(t *testing.T) {
	l := NewLevel(1, false, 0)
	l.RecordRead(line(0x100))
	l.RecordWrite(line(0x100))
	if !l.Release(line(0x100)) {
		t.Fatal("release missed present line")
	}
	if _, ok := l.ReadSet[line(0x100)]; ok {
		t.Fatal("read-set still holds released line")
	}
	if _, ok := l.WriteSet[line(0x100)]; !ok {
		t.Fatal("release must not touch the write-set")
	}
	if l.Release(line(0x900)) {
		t.Fatal("release of absent line reported true")
	}
}

func TestLogUndoFirstWritePerLevelOnly(t *testing.T) {
	l := NewLevel(1, false, 0)
	if !l.LogUndo(0x100, 7) {
		t.Fatal("first write did not log")
	}
	if l.LogUndo(0x100, 8) {
		t.Fatal("second write logged again")
	}
	if len(l.Undo) != 1 || l.Undo[0].Old != 7 {
		t.Fatalf("undo log wrong: %+v", l.Undo)
	}
}

func TestConflictMaskPerLevel(t *testing.T) {
	var s Stack
	l1 := s.Push(false, 0)
	l2 := s.Push(false, 0)
	l3 := s.Push(true, 0)
	l1.RecordRead(line(0x100))
	l2.RecordWrite(line(0x200))
	l3.RecordRead(line(0x300))

	probe := func(addrs ...mem.Addr) map[mem.Addr]struct{} {
		m := make(map[mem.Addr]struct{})
		for _, a := range addrs {
			m[line(a)] = struct{}{}
		}
		return m
	}
	if got := s.ConflictMask(probe(0x100)); got != 0b001 {
		t.Fatalf("mask = %03b, want 001", got)
	}
	if got := s.ConflictMask(probe(0x200, 0x300)); got != 0b110 {
		t.Fatalf("mask = %03b, want 110", got)
	}
	if got := s.ConflictMask(probe(0x900)); got != 0 {
		t.Fatalf("mask = %03b, want 0", got)
	}
	// A conflict hitting all levels at once (Section 4.6).
	l1.RecordRead(line(0x500))
	l2.RecordRead(line(0x500))
	l3.RecordRead(line(0x500))
	if got := s.ConflictMask(probe(0x500)); got != 0b111 {
		t.Fatalf("mask = %03b, want 111", got)
	}
}

func TestConflictMaskSkipsDeadLevels(t *testing.T) {
	var s Stack
	l := s.Push(false, 0)
	l.RecordRead(line(0x100))
	l.Status = Aborted
	if got := s.ConflictMask(map[mem.Addr]struct{}{line(0x100): {}}); got != 0 {
		t.Fatalf("aborted level still conflicts: %03b", got)
	}
}

func TestConflictsWithLine(t *testing.T) {
	var s Stack
	l1 := s.Push(false, 0)
	l1.RecordRead(line(0x100))
	l1.RecordWrite(line(0x200))
	if s.ConflictsWithLine(line(0x100), false) != 0b1 {
		t.Fatal("read conflict missed")
	}
	if s.ConflictsWithLine(line(0x100), true) != 0 {
		t.Fatal("writersOnly matched a read")
	}
	if s.ConflictsWithLine(line(0x200), true) != 0b1 {
		t.Fatal("write conflict missed")
	}
}

func TestMergeClosedInto(t *testing.T) {
	var s Stack
	parent := s.Push(false, 0)
	child := s.Push(false, 0)
	parent.RecordRead(line(0x100))
	parent.BufferWrite(0x100, 1)
	parent.RecordWrite(line(0x100))
	child.RecordRead(line(0x200))
	child.RecordWrite(line(0x300))
	child.BufferWrite(0x300, 3)
	child.BufferWrite(0x100, 9) // child overwrote a parent word
	child.LogUndo(0x300, 30)

	n := MergeClosedInto(parent, child)
	if n != 2 {
		t.Fatalf("merged %d lines, want 2", n)
	}
	if _, ok := parent.ReadSet[line(0x200)]; !ok {
		t.Fatal("read-set not merged")
	}
	if _, ok := parent.WriteSet[line(0x300)]; !ok {
		t.Fatal("write-set not merged")
	}
	if parent.WBuf[0x100] != 9 || parent.WBuf[0x300] != 3 {
		t.Fatalf("write-buffer not merged: %+v", parent.WBuf)
	}
	if len(parent.Undo) != 1 || parent.Undo[0] != (UndoRec{0x300, 30}) {
		t.Fatalf("undo not appended: %+v", parent.Undo)
	}
	// The parent must not re-log a word the child already logged.
	if parent.LogUndo(0x300, 99) {
		t.Fatal("parent re-logged a word inherited from the child")
	}
}

// TestMergePreservesFILOCorrectness: parent logs v0, child logs v1; a full
// rollback restoring in reverse order must end at v0.
func TestMergePreservesFILOCorrectness(t *testing.T) {
	var s Stack
	parent := s.Push(false, 0)
	child := s.Push(false, 0)
	parent.LogUndo(0x100, 0) // value before parent's write
	child.LogUndo(0x100, 1)  // value before child's write (parent's value)
	MergeClosedInto(parent, child)

	memVal := uint64(2) // the child's speculative value, now the parent's
	for i := len(parent.Undo) - 1; i >= 0; i-- {
		memVal = parent.Undo[i].Old
	}
	if memVal != 0 {
		t.Fatalf("FILO restore ended at %d, want 0", memVal)
	}
}

func TestPaperOpenCommitUpdatesAncestorData(t *testing.T) {
	var s Stack
	parent := s.Push(false, 0)
	child := s.Push(true, 0)
	parent.RecordWrite(line(0x100))
	parent.BufferWrite(0x100, 1)
	parent.RecordRead(line(0x200))
	child.RecordWrite(line(0x100))
	child.BufferWrite(0x100, 42)

	ApplyOpenCommitToAncestors(&s, child, PaperOpen, func(w mem.Addr) uint64 { return child.WBuf[w] })
	if parent.WBuf[0x100] != 42 {
		t.Fatalf("ancestor data = %d, want 42", parent.WBuf[0x100])
	}
	// Crucially, no set trimming: the parent still tracks both lines.
	if _, ok := parent.WriteSet[line(0x100)]; !ok {
		t.Fatal("paper semantics must not remove ancestor write-set entries")
	}
	if _, ok := parent.ReadSet[line(0x200)]; !ok {
		t.Fatal("unrelated read-set entry lost")
	}
}

func TestMossHoskingOpenCommitTrimsAncestorSets(t *testing.T) {
	var s Stack
	parent := s.Push(false, 0)
	child := s.Push(true, 0)
	parent.RecordRead(line(0x100))
	parent.RecordWrite(line(0x100))
	parent.RecordRead(line(0x200))
	child.RecordWrite(line(0x100))
	child.BufferWrite(0x100, 5)

	ApplyOpenCommitToAncestors(&s, child, MossHoskingOpen, func(w mem.Addr) uint64 { return child.WBuf[w] })
	if _, ok := parent.ReadSet[line(0x100)]; ok {
		t.Fatal("Moss–Hosking semantics must trim the ancestor read-set")
	}
	if _, ok := parent.WriteSet[line(0x100)]; ok {
		t.Fatal("Moss–Hosking semantics must trim the ancestor write-set")
	}
	if _, ok := parent.ReadSet[line(0x200)]; !ok {
		t.Fatal("untouched line must survive")
	}
}

func TestOpenCommitRewritesAncestorUndo(t *testing.T) {
	var s Stack
	parent := s.Push(false, 0)
	child := s.Push(true, 0)
	parent.LogUndo(0x100, 7) // parent wrote first; pre-value 7
	child.LogUndo(0x100, 8)  // child wrote too (pre-value 8 = parent's value)
	committed := map[mem.Addr]uint64{0x100: 99}
	n := ApplyOpenCommitToAncestors(&s, child, PaperOpen, func(w mem.Addr) uint64 { return committed[w] })
	if n != 1 {
		t.Fatalf("rewrote %d entries, want 1", n)
	}
	if parent.Undo[0].Old != 99 {
		t.Fatalf("parent undo restores %d, want the open-committed 99", parent.Undo[0].Old)
	}
}

func TestFootprint(t *testing.T) {
	l := NewLevel(1, false, 0)
	l.RecordRead(line(0x100))
	l.RecordWrite(line(0x100)) // same line: counted once
	l.RecordWrite(line(0x200))
	if got := l.Footprint(); got != 2 {
		t.Fatalf("footprint = %d, want 2", got)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{Active: "active", Validated: "validated", Committed: "committed", Aborted: "aborted"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
}

// Property: merging child sets into the parent yields exactly the union.
func TestQuickMergeIsUnion(t *testing.T) {
	f := func(parentLines, childLines []uint16) bool {
		var s Stack
		parent := s.Push(false, 0)
		child := s.Push(false, 0)
		want := make(map[mem.Addr]struct{})
		for _, a := range parentLines {
			parent.RecordRead(line(mem.Addr(a)))
			want[line(mem.Addr(a))] = struct{}{}
		}
		for _, a := range childLines {
			child.RecordRead(line(mem.Addr(a)))
			want[line(mem.Addr(a))] = struct{}{}
		}
		MergeClosedInto(parent, child)
		if len(parent.ReadSet) != len(want) {
			return false
		}
		for a := range want {
			if _, ok := parent.ReadSet[a]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: undo-log FILO replay restores the exact initial memory image
// after an arbitrary write sequence at one level.
func TestQuickUndoRestoresInitialImage(t *testing.T) {
	f := func(writes []struct {
		A uint8
		V uint64
	}) bool {
		m := mem.New()
		initial := make(map[mem.Addr]uint64)
		l := NewLevel(1, false, 0)
		for _, w := range writes {
			a := mem.WordAlign(mem.Addr(w.A) * 8)
			if _, seen := initial[a]; !seen {
				initial[a] = m.Load(a)
			}
			l.LogUndo(a, m.Load(a))
			m.Store(a, w.V)
		}
		for i := len(l.Undo) - 1; i >= 0; i-- {
			m.Store(l.Undo[i].Addr, l.Undo[i].Old)
		}
		for a, v := range initial {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConflictMask bit i is set iff level i+1's sets intersect the
// probe, for random small configurations.
func TestQuickConflictMaskMatchesNaive(t *testing.T) {
	f := func(sets [3][]uint8, probe []uint8) bool {
		var s Stack
		for i := 0; i < 3; i++ {
			l := s.Push(i == 2, 0)
			for _, a := range sets[i] {
				if a%2 == 0 {
					l.RecordRead(line(mem.Addr(a) * 64))
				} else {
					l.RecordWrite(line(mem.Addr(a) * 64))
				}
			}
		}
		pm := make(map[mem.Addr]struct{})
		for _, a := range probe {
			pm[line(mem.Addr(a)*64)] = struct{}{}
		}
		got := s.ConflictMask(pm)
		var want uint32
		for i, l := range s.Levels {
			hit := false
			for a := range pm {
				if _, ok := l.ReadSet[a]; ok {
					hit = true
				}
				if _, ok := l.WriteSet[a]; ok {
					hit = true
				}
			}
			if hit {
				want |= 1 << i
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
