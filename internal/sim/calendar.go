// The event loop's ready queue: a calendar queue (bucketed time wheel)
// over the CPUs' local cycle times.
//
// Entries land in bucket (time >> calShift) & calMask. An entry is
// *eligible* in a scan of day d only when its own day (time >> calShift)
// equals d — same-bucket entries from later wheel revolutions are
// skipped. Scanning buckets in day order from lowDay therefore visits
// entries in nondecreasing time order, and the first eligible bucket
// contains the queue's minimum.
//
// Invariants:
//
//   - lowDay is a lower bound on every queued entry's day. insert lowers
//     it, peek raises it to the first occupied day (everything earlier is
//     known empty), remove leaves it (a lower bound survives deletions).
//   - min, when non-nil, is the queued entry with the smallest
//     (time, id). insert keeps it current; removing the cached minimum
//     invalidates it (recomputed by the next peek). Removing any other
//     entry cannot change the minimum.
//
// Most peeks hit the cached min (O(1)); after a pop the next peek scans
// forward from lowDay and stops at the first occupied day. When every
// entry is at least a full wheel revolution ahead of lowDay (a long
// stall or randomized backoff), the wheel scan misses and peek falls
// back to one direct scan of all entries, then jumps lowDay to the
// minimum's day so the cost is paid once per gap, not per peek.
package sim

const (
	// calShift sets the bucket width to 16 cycles — a handful of simulated
	// instructions (costs.go latencies are 1–9 cycles), so neighboring
	// CPUs usually land in the same or adjacent buckets.
	calShift = 4
	// calMinBuckets bounds the wheel span below: 256 buckets × 16 cycles
	// covers a 4096-cycle spread before the far-future fallback engages.
	calMinBuckets = 256
	// calBucketSlots is each bucket's initial capacity, carved from one
	// slab so a machine's buckets cost one allocation until one overflows.
	calBucketSlots = 4
)

// calendar is the bucketed time wheel. The zero value needs init before
// use; init is idempotent so the engine can lazily allocate at Run time
// (SetupProc-style throwaway engines never pay for the buckets).
type calendar struct {
	buckets [][]*P
	mask    uint64
	n       int
	lowDay  uint64
	min     *P
}

func (c *calendar) init(ncpus int) {
	if c.buckets != nil {
		return
	}
	nb := calMinBuckets
	for nb < 2*ncpus {
		nb *= 2
	}
	c.buckets = make([][]*P, nb)
	c.mask = uint64(nb - 1)
	// Full slice expressions cap every bucket at its own slots, so an
	// overflowing bucket reallocates alone instead of overwriting the next.
	slab := make([]*P, nb*calBucketSlots)
	for i := range c.buckets {
		c.buckets[i] = slab[i*calBucketSlots : i*calBucketSlots : (i+1)*calBucketSlots]
	}
}

// calLess orders entries by (time, id) — the engine's scheduling rule.
func calLess(a, b *P) bool {
	return a.time < b.time || (a.time == b.time && a.ID < b.ID)
}

// insert queues p at its current local time.
func (c *calendar) insert(p *P) {
	d := p.time >> calShift
	if c.n == 0 || d < c.lowDay {
		c.lowDay = d
	}
	i := d & c.mask
	c.buckets[i] = append(c.buckets[i], p)
	c.n++
	if c.min != nil && calLess(p, c.min) {
		c.min = p
	}
}

// peek returns the queued entry with the smallest (time, id) without
// removing it, or nil when the queue is empty.
func (c *calendar) peek() *P {
	if c.n == 0 {
		return nil
	}
	if c.min != nil {
		return c.min
	}
	nb := uint64(len(c.buckets))
	for k := uint64(0); k < nb; k++ {
		d := c.lowDay + k
		var best *P
		for _, q := range c.buckets[d&c.mask] {
			if q.time>>calShift != d {
				continue // a later wheel revolution
			}
			if best == nil || calLess(q, best) {
				best = q
			}
		}
		if best != nil {
			c.lowDay = d
			c.min = best
			return best
		}
	}
	// Every entry is at least a full revolution ahead: find the minimum
	// directly and jump lowDay to it.
	var best *P
	for _, b := range c.buckets {
		for _, q := range b {
			if best == nil || calLess(q, best) {
				best = q
			}
		}
	}
	c.lowDay = best.time >> calShift
	c.min = best
	return best
}

// remove deletes p, which must be queued at its current time.
func (c *calendar) remove(p *P) {
	i := (p.time >> calShift) & c.mask
	b := c.buckets[i]
	for j, q := range b {
		if q == p {
			b[j] = b[len(b)-1]
			b[len(b)-1] = nil
			c.buckets[i] = b[:len(b)-1]
			c.n--
			if c.min == p {
				c.min = nil
			}
			return
		}
	}
	panic("sim: calendar remove of unqueued CPU")
}
