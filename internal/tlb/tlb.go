// Package tlb models the paper's Table 2 MMU: a split L1 DTLB (4 KiB and
// 2 MiB pages), a unified L2 TLB, and a page-table walker whose memory
// accesses go to real (simulated) DRAM — making address translation both a
// latency component and a row-buffer noise source, exactly as in the
// paper's Sniper setup.
package tlb

import (
	"fmt"

	"repro/internal/stats"
)

// Fixed counter IDs for MMU statistics, in the slot order passed to
// stats.NewFixed in DefaultMMU.
const (
	CounterL1Hit stats.CounterID = iota
	CounterL2Hit
	CounterWalk
)

// Config describes one TLB level.
type Config struct {
	Entries int
	Ways    int
	// Latency is the lookup cost in cycles.
	Latency int64
	// PageBits is log2 of the page size covered (12 for 4 KiB, 21 for 2 MiB).
	PageBits uint
}

type tlbEntry struct {
	vpn   uint64
	valid bool
	lru   int64
}

// TLB is a set-associative translation cache keyed by virtual page number.
type TLB struct {
	cfg     Config
	setMask uint64 // sets-1; the set count is a power of two
	lines   [][]tlbEntry
	tick    int64
}

// New builds a TLB. Entries must be a positive multiple of Ways and the set
// count Entries/Ways a power of two, so a mask selects the set; the Table 2
// TLBs (16, 8 and 128 sets) satisfy this. Geometries are fixed in code, so
// a bad one is a programming error and New panics on it.
func New(cfg Config) *TLB {
	if cfg.Ways < 1 || cfg.Entries < cfg.Ways || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: %d entries not a positive multiple of %d ways", cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("tlb: set count %d not a power of two", sets))
	}
	lines := make([][]tlbEntry, sets)
	for i := range lines {
		lines[i] = make([]tlbEntry, cfg.Ways)
	}
	return &TLB{cfg: cfg, setMask: uint64(sets - 1), lines: lines}
}

// Lookup probes the TLB for the page containing vaddr, inserting on miss.
//
//impact:hotpath
func (t *TLB) Lookup(vaddr uint64) bool {
	t.tick++
	vpn := vaddr >> t.cfg.PageBits
	set := int(vpn & t.setMask)
	ways := t.lines[set]
	for i := range ways {
		if ways[i].valid && ways[i].vpn == vpn {
			ways[i].lru = t.tick
			return true
		}
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = tlbEntry{vpn: vpn, valid: true, lru: t.tick}
	return false
}

// Latency returns the lookup cost.
func (t *TLB) Latency() int64 { return t.cfg.Latency }

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	for s := range t.lines {
		for w := range t.lines[s] {
			t.lines[s][w] = tlbEntry{}
		}
	}
}

// Reset returns the TLB to its just-constructed state: entries cleared and
// the LRU tick restarted. TLBs are small (at most 1536 entries), so a plain
// clear is cheap enough not to need the cache package's epoch trick.
func (t *TLB) Reset() {
	t.FlushAll()
	t.tick = 0
}

// Walker performs the memory accesses of a page-table walk. The MMU calls
// it once per walk level; implementations route the access to the memory
// system so walks disturb DRAM state.
type Walker func(now int64, level int, vaddr uint64) int64

// MMU combines the TLB hierarchy with a page-table walker.
type MMU struct {
	dtlb4k *TLB
	dtlb2m *TLB
	stlb   *TLB
	walker Walker
	// WalkLevels is the number of page-table levels touched on a full
	// walk (4 for x86-64).
	WalkLevels int
	counters   *stats.Counters
}

// DefaultMMU builds the Table 2 MMU: 64-entry 4-way 1-cycle L1 DTLB (4 KiB),
// 32-entry 4-way 1-cycle L1 DTLB (2 MiB), 1536-entry 12-way 12-cycle L2 TLB.
func DefaultMMU(walker Walker) *MMU {
	return &MMU{
		dtlb4k:     New(Config{Entries: 64, Ways: 4, Latency: 1, PageBits: 12}),
		dtlb2m:     New(Config{Entries: 32, Ways: 4, Latency: 1, PageBits: 21}),
		stlb:       New(Config{Entries: 1536, Ways: 12, Latency: 12, PageBits: 12}),
		walker:     walker,
		WalkLevels: 4,
		counters:   stats.NewFixed("l1_hit", "l2_hit", "walk"),
	}
}

// Counters exposes hit/miss/walk statistics.
func (m *MMU) Counters() *stats.Counters { return m.counters }

// Translate returns the address-translation latency for vaddr. huge selects
// the 2 MiB page path. On an L1 and L2 TLB miss the walker is invoked for
// each page-table level, and those accesses hit DRAM.
//
//impact:hotpath
func (m *MMU) Translate(now int64, vaddr uint64, huge bool) int64 {
	l1 := m.dtlb4k
	if huge {
		l1 = m.dtlb2m
	}
	if l1.Lookup(vaddr) {
		m.counters.Add(CounterL1Hit, 1)
		return l1.Latency()
	}
	lat := l1.Latency()
	if m.stlb.Lookup(vaddr) {
		m.counters.Add(CounterL2Hit, 1)
		return lat + m.stlb.Latency()
	}
	lat += m.stlb.Latency()
	m.counters.Add(CounterWalk, 1)
	if m.walker != nil {
		for level := 0; level < m.WalkLevels; level++ {
			lat += m.walker(now+lat, level, vaddr)
		}
	}
	return lat
}

// FlushAll empties all TLB levels.
func (m *MMU) FlushAll() {
	m.dtlb4k.FlushAll()
	m.dtlb2m.FlushAll()
	m.stlb.FlushAll()
}

// Reset returns the MMU to its just-constructed state: every TLB level
// cleared with LRU ticks restarted, and all counters zeroed. The walker is
// retained — it closes over the owning machine's memory system, which the
// machine resets itself.
func (m *MMU) Reset() {
	m.dtlb4k.Reset()
	m.dtlb2m.Reset()
	m.stlb.Reset()
	m.counters.Reset()
}
