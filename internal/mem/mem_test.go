package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 0xdeadbeef)
	if got := m.Load(0x1000); got != 0xdeadbeef {
		t.Fatalf("Load = %#x, want 0xdeadbeef", got)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	m := New()
	if got := m.Load(0x9999_0000); got != 0 {
		t.Fatalf("untouched Load = %#x, want 0", got)
	}
}

func TestUnalignedAccessesAliasTheirWord(t *testing.T) {
	m := New()
	m.Store(0x1003, 7) // aligns down to 0x1000
	if got := m.Load(0x1000); got != 7 {
		t.Fatalf("Load(0x1000) = %d, want 7", got)
	}
	if got := m.Load(0x1007); got != 7 {
		t.Fatalf("Load(0x1007) = %d, want 7 (same word)", got)
	}
	if got := m.Load(0x1008); got != 0 {
		t.Fatalf("Load(0x1008) = %d, want 0 (next word)", got)
	}
}

func TestAdjacentWordsAreIndependent(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Store(Addr(0x2000+i*WordSize), uint64(i))
	}
	for i := 0; i < 100; i++ {
		if got := m.Load(Addr(0x2000 + i*WordSize)); got != uint64(i) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestCrossPageAccesses(t *testing.T) {
	m := New()
	// Straddle several page boundaries.
	for _, a := range []Addr{pageBytes - WordSize, pageBytes, 3*pageBytes + 8, 100 * pageBytes} {
		m.Store(a, uint64(a))
		if got := m.Load(a); got != uint64(a) {
			t.Fatalf("Load(%#x) = %d, want %d", a, got, a)
		}
	}
	if m.Footprint() < 3 {
		t.Fatalf("footprint = %d, want >= 3 pages", m.Footprint())
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	m := New()
	a := m.Alloc(24, 8)
	b := m.Alloc(100, 64)
	c := m.AllocWords(4)
	if a%8 != 0 || b%64 != 0 || c%8 != 0 {
		t.Fatalf("misaligned allocations: %#x %#x %#x", a, b, c)
	}
	if b < a+24 {
		t.Fatalf("allocation b=%#x overlaps a=%#x+24", b, a)
	}
	if c < b+100 {
		t.Fatalf("allocation c=%#x overlaps b=%#x+100", c, b)
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-power-of-two alignment")
		}
	}()
	New().Alloc(8, 24)
}

func TestLineAddr(t *testing.T) {
	cases := []struct {
		a    Addr
		size int
		want Addr
	}{
		{0, 64, 0},
		{63, 64, 0},
		{64, 64, 64},
		{0x12345, 32, 0x12340},
		{0x12345, 64, 0x12340},
	}
	for _, c := range cases {
		if got := LineAddr(c.a, c.size); got != c.want {
			t.Errorf("LineAddr(%#x,%d) = %#x, want %#x", c.a, c.size, got, c.want)
		}
	}
}

func TestWordAlignHelpers(t *testing.T) {
	if !IsWordAligned(0x1000) || IsWordAligned(0x1001) {
		t.Fatal("IsWordAligned wrong")
	}
	if WordAlign(0x1007) != 0x1000 {
		t.Fatal("WordAlign wrong")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		if got := B2F(F2B(f)); got != f {
			t.Fatalf("round trip of %g gave %g", f, got)
		}
	}
}

// Property: a store followed by a load of the same word returns the value,
// and leaves all other sampled words unchanged.
func TestQuickStoreLoad(t *testing.T) {
	m := New()
	f := func(rawA uint32, v uint64, rawB uint32) bool {
		a := WordAlign(Addr(rawA))
		b := WordAlign(Addr(rawB))
		before := m.Load(b)
		m.Store(a, v)
		if m.Load(a) != v {
			return false
		}
		if a != b && m.Load(b) != before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: LineAddr is idempotent and never increases the address.
func TestQuickLineAddrIdempotent(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		la := LineAddr(a, 64)
		return la <= a && LineAddr(la, 64) == la && a-la < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardAccesses exercises the two-level page table: writes
// spread across many shards (2 MiB spans) read back correctly, including
// ping-pong patterns that defeat both one-entry caches.
func TestCrossShardAccesses(t *testing.T) {
	m := New()
	const shardSpan = Addr(1) << (12 + 9) // pageBytes << shardShift
	addrs := []Addr{
		0x1_0000,
		0x1_0000 + shardSpan,
		0x1_0000 + 7*shardSpan,
		0x1_0000 + 300*shardSpan,
	}
	for i, a := range addrs {
		m.Store(a, uint64(i)+1)
	}
	// Ping-pong between distant shards: every access misses the caches.
	for pass := 0; pass < 3; pass++ {
		for i, a := range addrs {
			if got := m.Load(a); got != uint64(i)+1 {
				t.Fatalf("pass %d: Load(%#x) = %d, want %d", pass, a, got, i+1)
			}
		}
	}
}

// TestFootprintCountsResidentPages pins Footprint to allocated pages, not
// shards: two pages in one shard and one in a distant shard are three.
func TestFootprintCountsResidentPages(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Fatalf("fresh footprint = %d, want 0", m.Footprint())
	}
	m.Store(0x1_0000, 1)         // page A
	m.Store(0x1_0000, 2)         // same page
	m.Store(0x2_0000, 3)         // page B, same shard
	m.Store(0x1_0000+(1<<25), 4) // distant shard
	if got := m.Footprint(); got != 3 {
		t.Fatalf("footprint = %d, want 3", got)
	}
	if m.Load(0x9_999_000) != 0 { // miss path must not allocate
		t.Fatal("untouched read nonzero")
	}
	if got := m.Footprint(); got != 3 {
		t.Fatalf("footprint after read miss = %d, want 3", got)
	}
}

// TestFingerprintAddressOrderAcrossShards: the fingerprint stream must
// visit nonzero words in global address order regardless of shard-map
// iteration order, and be insensitive to write order.
func TestFingerprintAddressOrderAcrossShards(t *testing.T) {
	const shardSpan = Addr(1) << (12 + 9)
	write := func(m *Memory, order []int, addrs []Addr) {
		for _, i := range order {
			m.Store(addrs[i], uint64(i)+100)
		}
	}
	collect := func(m *Memory) []uint64 {
		var ws []uint64
		m.Fingerprint(func(w uint64) { ws = append(ws, w) })
		return ws
	}
	addrs := []Addr{
		0x1_0000 + 99*shardSpan,
		0x1_0000,
		0x1_0000 + 5*shardSpan + 4096,
		0x1_0000 + 5*shardSpan,
	}
	a := New()
	write(a, []int{0, 1, 2, 3}, addrs)
	b := New()
	write(b, []int{3, 2, 1, 0}, addrs)
	wa, wb := collect(a), collect(b)
	if len(wa) != 2*len(addrs) {
		t.Fatalf("fingerprint emitted %d words, want %d", len(wa), 2*len(addrs))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("fingerprint differs at word %d: %#x vs %#x (write-order sensitivity)", i, wa[i], wb[i])
		}
	}
	// Address stream (even positions) strictly increasing.
	for i := 2; i < len(wa); i += 2 {
		if wa[i] <= wa[i-2] {
			t.Fatalf("fingerprint addresses not increasing: %#x after %#x", wa[i], wa[i-2])
		}
	}
}
