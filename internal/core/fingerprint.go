// Machine state fingerprinting for the litmus explorer's state-hash
// deduplication (internal/litmus): two machine states with equal
// fingerprints behave identically under identical future decisions, so
// the explorer prunes a schedule prefix whose state it has already
// expanded. This is the partial-order reduction that makes exhaustive
// exploration terminate — independent reorderings (two CPUs' ties taken
// in either order, two different-word drains in either order) converge
// to the same state and are expanded once.
//
// What the hash must include is everything behavior depends on:
// per-CPU relative times (the scheduler compares times, never absolute
// values), scheduling states, transaction stacks with their read-/
// write-sets and buffered/undone values, violation queues, store
// buffers, cache tag/metadata state (hit latencies and gang-walk costs
// are behavioral), bus occupancy, the commit token, and the full memory
// image. What it must exclude is everything that differs between
// behaviorally identical histories: absolute times, raw LRU ticks
// (package cache ranks them instead), and stats-only counters
// (StallCycles, WastedCycles, …) that no control path reads back.
//
// Per-CPU *event* counters that programs also cannot read (Rollbacks,
// TxBegins, Fallbacks, …) ARE included: the hybrid retry loop keeps its
// attempt count in a stack frame the fingerprint cannot see, and those
// counters are the observable summary that separates states whose
// in-flight retry positions differ. For litmus programs (at most one
// transaction per thread) the counters determine the hidden loop state
// exactly; DESIGN.md §14 spells out the general-program caveat.
package core

import (
	"tmisa/internal/mem"
	"tmisa/internal/sim"
	"tmisa/internal/tm"
)

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvAcc is a word-at-a-time FNV-1a accumulator.
type fnvAcc struct{ h uint64 }

func (f *fnvAcc) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= fnvPrime
		v >>= 8
	}
}

func (f *fnvAcc) boolean(b bool) {
	if b {
		f.word(1)
	} else {
		f.word(0)
	}
}

func (f *fnvAcc) str(s string) {
	f.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= fnvPrime
	}
}

// Fingerprint hashes the machine's complete behavioral state. extra
// words are folded in last — the litmus runner passes its interpreter
// state (per-CPU program positions and registers), which is exactly the
// continuation state the machine cannot see. Callers must invoke it only
// while the simulation is quiescent: from a SchedTieBreak or DrainChoose
// hook (every other goroutine is parked), or before/after Run.
func (m *Machine) Fingerprint(extra ...uint64) uint64 {
	f := &fnvAcc{h: fnvOffset}
	var keys []mem.Addr // hashLevel's sort buffer

	// Times are hashed relative to the earliest live CPU: the scheduler
	// only ever compares times, so histories that differ by a global
	// shift are the same state. Halted CPUs keep a frozen clock that no
	// longer participates in scheduling; it is excluded so one early
	// halter does not anchor the base forever.
	base := uint64(0)
	haveBase := false
	for _, p := range m.procs {
		if p.sp.State() != sim.Halted {
			if t := p.sp.Time(); !haveBase || t < base {
				base, haveBase = t, true
			}
		}
	}

	for _, p := range m.procs {
		f.word(uint64(p.sp.State()))
		if p.sp.State() != sim.Halted {
			f.word(p.sp.Time() - base)
		}
		// Behavioral per-CPU counters (see the package comment for why);
		// timing/occupancy stats stay out.
		f.word(p.c.Instructions)
		f.word(p.c.TxBegins)
		f.word(p.c.Rollbacks)
		f.word(p.c.Violations)
		f.word(p.c.Fallbacks)
		f.word(p.c.CapacityAborts)

		f.word(uint64(len(p.stack.Levels)))
		for _, lvl := range p.stack.Levels {
			hashLevel(f, lvl, &keys)
		}
		f.word(uint64(len(p.violQ)))
		for _, r := range p.violQ {
			f.word(uint64(r.addr))
			f.word(uint64(r.mask))
			f.word(uint64(int64(r.by)))
			f.str(r.why)
		}
		f.boolean(p.violReport)
		f.word(uint64(p.tokenDepth))
		f.word(uint64(p.consecRollbacks))
		f.boolean(p.stalled)
		f.word(uint64(len(p.stallWaiters)))
		for _, q := range p.stallWaiters {
			f.word(uint64(q.id))
		}
		f.word(uint64(p.faultIdx))
		f.word(uint64(len(p.sb)))
		for _, e := range p.sb {
			f.word(uint64(e.word))
			f.word(e.val)
			f.word(e.born - base)
		}
		p.hier.Fingerprint(f.word)
	}

	owner := int64(-1)
	if m.fbOwner != nil {
		owner = int64(m.fbOwner.id)
	}
	f.word(uint64(owner))
	holder := int64(-1)
	if h := m.token.Holder(); h != nil {
		holder = int64(h.ID)
	}
	f.word(uint64(holder))
	for _, id := range m.token.QueueIDs() {
		f.word(uint64(id))
	}
	if free := m.bus.FreeAt(); free > base {
		// Future bus occupancy relative to the time base; a bus that freed
		// in the past is indistinguishable from an idle one.
		f.word(free - base)
	} else {
		f.word(0)
	}
	m.mem.Fingerprint(f.word)

	for _, v := range extra {
		f.word(v)
	}
	return f.h
}

// hashLevel folds one transaction level's behavioral state. StartCycle
// is excluded (wasted-cycle accounting only); undo membership is implied
// by the log itself. keys is scratch space for the sorted set walks.
func hashLevel(f *fnvAcc, lvl *tm.Level, keys *[]mem.Addr) {
	f.word(uint64(lvl.NL))
	f.boolean(lvl.Open)
	f.word(uint64(lvl.Status))
	f.word(uint64(lvl.Mode))
	f.word(uint64(len(lvl.ReadSet)))
	for _, a := range sortedKeys(keys, lvl.ReadSet) {
		f.word(uint64(a))
	}
	f.word(uint64(len(lvl.WriteSet)))
	for _, a := range sortedKeys(keys, lvl.WriteSet) {
		f.word(uint64(a))
	}
	f.word(uint64(len(lvl.WBuf)))
	for _, a := range sortedKeys(keys, lvl.WBuf) {
		f.word(uint64(a))
		f.word(lvl.WBuf[a])
	}
	f.word(uint64(len(lvl.Undo)))
	for _, u := range lvl.Undo {
		f.word(uint64(u.Addr))
		f.word(u.Old)
	}
}
