package cache

import (
	"testing"
)

// fixedMem is a test backend with a constant latency that records accesses.
type fixedMem struct {
	latency  int64
	accesses []uint64
	writes   []uint64
}

var _ Level = (*fixedMem)(nil)

func (m *fixedMem) Access(_ int64, addr uint64, write bool) int64 {
	if write {
		m.writes = append(m.writes, addr)
	} else {
		m.accesses = append(m.accesses, addr)
	}
	return m.latency
}

func smallCache(t *testing.T, policy ReplacementPolicy, next Level) *Cache {
	t.Helper()
	c, err := New(Config{
		Name: "test", SizeBytes: 4096, Ways: 4, LineBytes: 64, Latency: 10, Policy: policy,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheGeometryValidation(t *testing.T) {
	next := &fixedMem{latency: 100}
	bad := []Config{
		{Name: "badline", SizeBytes: 4096, Ways: 4, LineBytes: 48, Latency: 1},
		{Name: "badways", SizeBytes: 4096, Ways: 0, LineBytes: 64, Latency: 1},
		{Name: "badsets", SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64, Latency: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, next); err == nil {
			t.Errorf("config %q accepted", cfg.Name)
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	if lat := c.Access(0, 0x1000, false); lat != 110 {
		t.Fatalf("miss latency = %d, want 110 (lookup + fill)", lat)
	}
	if lat := c.Access(0, 0x1000, false); lat != 10 {
		t.Fatalf("hit latency = %d, want 10", lat)
	}
	if !c.Contains(0x1000) {
		t.Fatal("line not cached after fill")
	}
	if got := c.Counters().Get("hit"); got != 1 {
		t.Fatalf("hit counter = %d, want 1", got)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x1000, false)
	if lat := c.Access(0, 0x1030, false); lat != 10 {
		t.Fatalf("same-line access latency = %d, want hit", lat)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next) // 16 sets, 4 ways
	stride := uint64(c.Sets()) << c.LineBits()
	// Fill one set with 4 distinct tags, then touch the first again so
	// the second becomes LRU, then insert a fifth.
	for i := uint64(0); i < 4; i++ {
		c.Access(0, i*stride, false)
	}
	c.Access(0, 0, false) // refresh tag 0
	c.Access(0, 4*stride, false)
	if c.Contains(1 * stride) {
		t.Fatal("LRU victim (tag 1) still present")
	}
	if !c.Contains(0) {
		t.Fatal("recently used tag 0 evicted")
	}
}

func TestCacheSRRIPEvictsNonReused(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicySRRIP, next)
	stride := uint64(c.Sets()) << c.LineBits()
	for i := uint64(0); i < 4; i++ {
		c.Access(0, i*stride, false)
	}
	// Promote tag 0 to RRPV 0; a new insertion must not victimize it.
	c.Access(0, 0, false)
	c.Access(0, 4*stride, false)
	if !c.Contains(0) {
		t.Fatal("SRRIP evicted the re-referenced line")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	stride := uint64(c.Sets()) << c.LineBits()
	c.Access(0, 0, true) // dirty line
	for i := uint64(1); i <= 4; i++ {
		c.Access(0, i*stride, false)
	}
	if len(next.writes) != 1 {
		t.Fatalf("writebacks = %d, want 1", len(next.writes))
	}
	if got := c.Counters().Get("writeback"); got != 1 {
		t.Fatalf("writeback counter = %d, want 1", got)
	}
}

func TestCacheInvalidate(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x2000, true)
	present, dirty := c.Invalidate(0x2000)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(0x2000) {
		t.Fatal("line still present after Invalidate")
	}
	present, _ = c.Invalidate(0x2000)
	if present {
		t.Fatal("second Invalidate reported present")
	}
}

func TestCacheEvictHook(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	var evicted []uint64
	c.SetEvictHook(func(addr uint64, _ uint16) { evicted = append(evicted, addr) })
	stride := uint64(c.Sets()) << c.LineBits()
	for i := uint64(0); i <= 4; i++ {
		c.Access(0, i*stride, false)
	}
	if len(evicted) != 1 {
		t.Fatalf("evict hook fired %d times, want 1", len(evicted))
	}
	if evicted[0] != 0 {
		t.Fatalf("evicted address = %#x, want 0 (the LRU line)", evicted[0])
	}
}

func TestCacheFlushAll(t *testing.T) {
	next := &fixedMem{latency: 100}
	c := smallCache(t, PolicyLRU, next)
	c.Access(0, 0x3000, false)
	c.FlushAll()
	if c.Contains(0x3000) {
		t.Fatal("line survived FlushAll")
	}
}

// TestReconstructRoundTrip is the regression test for the precomputed
// set/tag shift constants: a writeback address rebuilt from (tag, set) must
// be the line-aligned original and must map back to the same set and tag.
func TestReconstructRoundTrip(t *testing.T) {
	geoms := []Config{
		{Name: "l1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 4, Policy: PolicyLRU},
		{Name: "direct", SizeBytes: 16 << 10, Ways: 1, LineBytes: 64, Latency: 4, Policy: PolicyLRU},
		{Name: "llc", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, Latency: 42, Policy: PolicySRRIP},
		{Name: "one-set", SizeBytes: 512, Ways: 8, LineBytes: 64, Latency: 2, Policy: PolicyLRU},
		{Name: "bigline", SizeBytes: 64 << 10, Ways: 4, LineBytes: 256, Latency: 8, Policy: PolicyLRU},
	}
	addrs := []uint64{0, 0x40, 0x1000, 0xdeadbeef40, 1<<40 | 0x1234c0, ^uint64(0)}
	for _, cfg := range geoms {
		c, err := New(cfg, &fixedMem{latency: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range addrs {
			aligned := addr &^ (uint64(cfg.LineBytes) - 1)
			set := c.SetIndex(addr)
			tag := c.tagOf(addr)
			re := c.reconstruct(tag, set)
			if re != aligned {
				t.Errorf("%s: reconstruct(tagOf(%#x), SetIndex) = %#x, want %#x", cfg.Name, addr, re, aligned)
			}
			if got := c.SetIndex(re); got != set {
				t.Errorf("%s: SetIndex(reconstructed %#x) = %d, want %d", cfg.Name, re, got, set)
			}
			if got := c.tagOf(re); got != tag {
				t.Errorf("%s: tagOf(reconstructed %#x) = %#x, want %#x", cfg.Name, re, got, tag)
			}
		}
	}
}

// TestDirectMappedFastPath exercises the 1-way probe path: hit, conflict
// eviction with dirty writeback, and back-invalidation hook.
func TestDirectMappedFastPath(t *testing.T) {
	next := &fixedMem{latency: 100}
	c, err := New(Config{
		Name: "dm", SizeBytes: 4096, Ways: 1, LineBytes: 64, Latency: 10, Policy: PolicyLRU,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []uint64
	c.SetEvictHook(func(addr uint64, _ uint16) { evicted = append(evicted, addr) })
	stride := uint64(c.Sets()) << c.LineBits()
	if lat := c.Access(0, 0, true); lat != 110 {
		t.Fatalf("cold miss latency = %d, want 110", lat)
	}
	if lat := c.Access(1, 0, false); lat != 10 {
		t.Fatalf("hit latency = %d, want 10", lat)
	}
	// Same set, different tag: must evict line 0 and write it back dirty.
	c.Access(2, stride, false)
	if c.Contains(0) || !c.Contains(stride) {
		t.Fatal("direct-mapped conflict did not replace the resident line")
	}
	if len(next.writes) != 1 || next.writes[0] != 0 {
		t.Fatalf("writebacks = %#v, want [0]", next.writes)
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evict hook = %#v, want [0]", evicted)
	}
	if hits := c.Counters().Value(CounterHit); hits != 1 {
		t.Fatalf("hit counter = %d, want 1", hits)
	}
	if misses := c.Counters().Value(CounterMiss); misses != 2 {
		t.Fatalf("miss counter = %d, want 2", misses)
	}
}

// TestAccessHitPathNoAllocs asserts the per-access fast path is
// allocation-free, for both set-associative and direct-mapped geometries.
func TestAccessHitPathNoAllocs(t *testing.T) {
	for _, ways := range []int{1, 8} {
		c, err := New(Config{
			Name: "hot", SizeBytes: 32 << 10, Ways: ways, LineBytes: 64, Latency: 4, Policy: PolicyLRU,
		}, &fixedMem{latency: 100})
		if err != nil {
			t.Fatal(err)
		}
		c.Access(0, 0x1000, false)
		now := int64(0)
		if avg := testing.AllocsPerRun(1000, func() {
			now++
			c.Access(now, 0x1000, false)
		}); avg != 0 {
			t.Errorf("ways=%d: hit path allocates %v allocs/op, want 0", ways, avg)
		}
	}
}
