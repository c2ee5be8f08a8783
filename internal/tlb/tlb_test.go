package tlb

import "testing"

func TestTLBHitMiss(t *testing.T) {
	tlb := New(Config{Entries: 16, Ways: 4, Latency: 1, PageBits: 12})
	if tlb.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	if !tlb.Lookup(0x1abc) {
		t.Fatal("same-page lookup missed")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("different page hit")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := New(Config{Entries: 4, Ways: 4, Latency: 1, PageBits: 12})
	// One set of 4 ways: the fifth distinct page evicts the LRU.
	for p := uint64(0); p < 5; p++ {
		tlb.Lookup(p << 12)
	}
	if tlb.Lookup(0) {
		t.Fatal("LRU entry survived capacity eviction")
	}
	if !tlb.Lookup(4 << 12) {
		t.Fatal("most recent entry evicted")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb := New(Config{Entries: 16, Ways: 4, Latency: 1, PageBits: 12})
	tlb.Lookup(0x5000)
	tlb.FlushAll()
	if tlb.Lookup(0x5000) {
		t.Fatal("entry survived FlushAll")
	}
}

func TestMMUWalkPath(t *testing.T) {
	var walks int
	mmu := DefaultMMU(func(_ int64, level int, _ uint64) int64 {
		walks++
		return 30
	})
	lat := mmu.Translate(0, 0xdead000, false)
	// Cold: L1 probe (1) + L2 probe (12) + 4 walk levels x 30.
	if want := int64(1 + 12 + 4*30); lat != want {
		t.Fatalf("cold translate latency = %d, want %d", lat, want)
	}
	if walks != 4 {
		t.Fatalf("walker invoked %d times, want 4", walks)
	}
	// Warm: L1 hit.
	if lat := mmu.Translate(100, 0xdead000, false); lat != 1 {
		t.Fatalf("warm translate latency = %d, want 1", lat)
	}
	if got := mmu.Counters().Get("walk"); got != 1 {
		t.Fatalf("walk counter = %d, want 1", got)
	}
}

func TestMMUL2Hit(t *testing.T) {
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { return 30 })
	// Fill the 64-entry L1 DTLB past capacity; early pages stay in L2.
	for p := uint64(0); p < 80; p++ {
		mmu.Translate(0, p<<12, false)
	}
	lat := mmu.Translate(0, 0, false)
	if want := int64(1 + 12); lat != want {
		t.Fatalf("L2-hit latency = %d, want %d", lat, want)
	}
}

func TestMMUHugePages(t *testing.T) {
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { return 30 })
	mmu.Translate(0, 0x200000, true)
	if lat := mmu.Translate(0, 0x2abcde, true); lat != 1 {
		t.Fatalf("huge-page warm translate = %d, want 1", lat)
	}
}

func TestMMUFlushAll(t *testing.T) {
	var walks int
	mmu := DefaultMMU(func(_ int64, _ int, _ uint64) int64 { walks++; return 30 })
	mmu.Translate(0, 0x7000, false)
	mmu.FlushAll()
	mmu.Translate(0, 0x7000, false)
	if walks != 8 {
		t.Fatalf("walker invoked %d times, want 8 (two full walks)", walks)
	}
}

// TestNewRejectsBadGeometry pins that every TLB New accepts indexes its
// sets exactly with a mask: the set count must be a power of two and the
// entries a positive multiple of the ways.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 48, Ways: 4},   // 12 sets
		{Entries: 1536, Ways: 8}, // 192 sets
		{Entries: 18, Ways: 4},   // not a multiple of the ways
		{Entries: 2, Ways: 4},    // fewer entries than ways
		{Entries: 16, Ways: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) accepted a bad geometry", cfg)
				}
			}()
			New(cfg)
		}()
	}
	for _, cfg := range []Config{
		{Entries: 64, Ways: 4},    // Table 2 L1 DTLB, 4 KiB: 16 sets
		{Entries: 32, Ways: 4},    // Table 2 L1 DTLB, 2 MiB: 8 sets
		{Entries: 1536, Ways: 12}, // Table 2 L2 TLB: 128 sets
		{Entries: 4, Ways: 4},     // fully associative
	} {
		New(cfg)
	}
}
