package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"tmisa/internal/mem"
)

// TestLineSize pins the packed line layout: two lines per 64-byte host
// cache line, with both nesting schemes' fields kept.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 32 {
		t.Fatalf("line is %d bytes, want at most 32", n)
	}
}

// allocatedSets counts lv's sets that hold ways.
func allocatedSets(lv *level) int {
	n := 0
	for _, set := range lv.sets {
		if set != nil {
			n++
		}
	}
	return n
}

// touchAll gives every set of h its ways up front: the fully allocated
// layout the partly touched hierarchy must be indistinguishable from.
func touchAll(h *Hierarchy) {
	for _, lv := range []*level{h.l1, h.l2} {
		for si := range lv.sets {
			lv.fillSet(mem.Addr(si) << lv.setShift)
		}
	}
}

// TestSetsAllocateOnFirstFill: a fresh hierarchy holds no line storage,
// a lookup in an untouched set misses without allocating, and one access
// gives at most one set per level its ways, from one slab chunk.
func TestSetsAllocateOnFirstFill(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	for _, lv := range []*level{h.l1, h.l2} {
		if n := allocatedSets(lv); n != 0 || lv.slab != nil {
			t.Fatalf("fresh level holds %d sets and a %d-line slab, want none", n, len(lv.slab))
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if h.l1.lookup(0x1000) != nil || h.l2.lookup(0x1000) != nil {
			t.Fatal("lookup hit in an untouched set")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookup in an untouched set made %v allocations", allocs)
	}

	h.Access(0x1000, true, 1)
	for i, lv := range []*level{h.l1, h.l2} {
		if n := allocatedSets(lv); n != 1 {
			t.Fatalf("L%d: one access allocated %d sets, want 1", i+1, n)
		}
		if chunk := len(lv.slab) + lv.ways; chunk > slabSets*lv.ways {
			t.Fatalf("L%d: slab chunk of %d lines exceeds %d sets' worth", i+1, chunk, slabSets)
		}
	}
	// A second line in the same sets allocates nothing more.
	h.Access(0x1000+mem.Addr(len(h.l2.sets)*h.cfg.LineSize), false, 1)
	if allocatedSets(h.l1) != 1 || allocatedSets(h.l2) != 1 {
		t.Fatal("a same-set fill allocated another set")
	}
}

// TestPartlyTouchedMatchesFullyAllocated drives a first-touch hierarchy
// and a fully allocated one through the same random mix of accesses,
// closed and open commits, rollbacks and ClearAll, for both schemes and
// both merge policies. Every result, SpeculativeLines count, marked-line
// view and Fingerprint stream must agree, and none of the gang or
// inspection operations may allocate a set the accesses did not touch.
func TestPartlyTouchedMatchesFullyAllocated(t *testing.T) {
	type op struct {
		Kind, NL uint8
		A        uint16
		Write    bool
	}
	fingerprint := func(h *Hierarchy) []uint64 {
		var words []uint64
		h.Fingerprint(func(w uint64) { words = append(words, w) })
		return words
	}
	f := func(ops []op, multitrack, lazyMerge bool) bool {
		cfg := DefaultConfig()
		if multitrack {
			cfg.Scheme = Multitrack
		}
		cfg.LazyMerge = lazyMerge
		lazy, full := NewHierarchy(cfg), NewHierarchy(cfg)
		touchAll(full)
		for _, o := range ops {
			nl := int(o.NL)%3 + 1
			touched := [2]int{allocatedSets(lazy.l1), allocatedSets(lazy.l2)}
			switch o.Kind % 8 {
			case 5:
				if lazy.CommitLevel(nl, o.Write) != full.CommitLevel(nl, o.Write) {
					return false
				}
			case 6:
				lazy.RollbackLevel(nl)
				full.RollbackLevel(nl)
			case 7:
				lazy.ClearAll()
				full.ClearAll()
			default:
				// Spread lines over the whole address space, so sets are
				// both shared and left untouched.
				a := mem.Addr(o.A) * 8 * 97
				if lazy.Access(a, o.Write, nl) != full.Access(a, o.Write, nl) {
					return false
				}
				touched = [2]int{allocatedSets(lazy.l1), allocatedSets(lazy.l2)}
			}
			if lazy.SpeculativeLines() != full.SpeculativeLines() ||
				!slices.Equal(fingerprint(lazy), fingerprint(full)) {
				return false
			}
			lm, fm := markedLines(lazy), markedLines(full)
			if len(lm) != len(fm) {
				return false
			}
			for a, rw := range lm {
				if fm[a] != rw {
					return false
				}
			}
			if touched != [2]int{allocatedSets(lazy.l1), allocatedSets(lazy.l2)} {
				return false
			}
		}
		return allocatedSets(lazy.l2) < len(lazy.l2.sets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
