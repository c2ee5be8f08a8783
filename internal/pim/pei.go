// Package pim models the two Processing-in-Memory substrates the paper's
// attacks exploit: PIM-Enabled Instructions (PEI, Ahn et al. ISCA'15) — a
// processing-near-memory design with per-bank computation units and a
// locality-monitoring dispatch unit — and RowClone (Seshadri et al.
// MICRO'13) — a processing-using-memory bulk copy primitive with masked
// multi-bank dispatch.
package pim

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// Fixed counter IDs for the PEI engine's dispatch statistics, in the slot
// order passed to stats.NewFixed in NewPEIEngine.
const (
	CounterHostSide stats.CounterID = iota
	CounterMemorySide
)

// PEICosts collects the software/uncore cost constants of the PEI path.
type PEICosts struct {
	// IssueCost is the core-side cost of dispatching one synchronous PEI
	// (operand packing, PMU lookup, uncore hop).
	IssueCost int64 `json:"issue_cost"`
	// AsyncIssueCost is the core-side cost of a fire-and-forget PEI,
	// which carries operand data and write semantics and therefore pays
	// a heavier dispatch than a read-return PEI.
	AsyncIssueCost int64 `json:"async_issue_cost"`
	// PEIOverhead is the additional latency of executing a PEI in a
	// memory-side PCU (3 cycles in the paper, after Ahn et al.).
	PEIOverhead int64 `json:"pei_overhead"`
	// HostExtra is the extra cost when the PMU routes the PEI to the
	// host-side PCU (it then goes through the cache hierarchy).
	HostExtra int64 `json:"host_extra"`
}

// DefaultPEICosts returns the calibrated constants (see DESIGN.md).
func DefaultPEICosts() PEICosts {
	return PEICosts{IssueCost: 25, AsyncIssueCost: 45, PEIOverhead: 3, HostExtra: 5}
}

// PEIResult describes one executed PEI.
type PEIResult struct {
	// Latency is the core-observed round-trip latency for synchronous
	// execution, or the issue cost for asynchronous execution.
	Latency int64
	// CompletedAt is when the memory-side operation finishes (equals the
	// issue completion for host-side execution).
	CompletedAt int64
	// NearMemory reports whether the PMU dispatched the PEI to a
	// memory-side PCU.
	NearMemory bool
	// Outcome is the DRAM row-buffer outcome for memory-side execution.
	Outcome dram.Outcome
}

// LocalityMonitor models the PEI Management Unit's locality monitor: a small
// tag cache of recently touched cache blocks. A hit means the data is likely
// cached, so the PEI executes host-side; a miss routes it near memory. The
// IMPACT attackers deliberately touch fresh cache lines each batch to force
// memory-side execution.
//
// The monitor is a fully associative LRU tag cache built from fixed arrays.
// An open-addressed tag table (linear probing, backward-shift deletion)
// maps a tag to its entry, and an intrusive doubly linked list threads the
// entries from most to least recently touched, so a hit, a fill and an
// eviction each cost O(1) with no Go map on the path.
type LocalityMonitor struct {
	// slots is the tag table: a slot holds entry index + 1, or 0 when empty.
	slots     []int32
	slotMask  uint64
	hashShift uint
	// tags, prev and next are indexed by entry; prev/next link the LRU
	// list, with -1 ending it at either side.
	tags       []uint64
	prev, next []int32
	head, tail int32 // most and least recently touched entries
	used       int32 // entries handed out so far (they are never freed)
}

// NewLocalityMonitor returns a monitor tracking up to max cache-line tags
// (at least one).
func NewLocalityMonitor(max int) *LocalityMonitor {
	if max < 1 {
		max = 1
	}
	// A table of at least twice the capacity keeps the load factor at or
	// below 1/2, so probe chains stay short.
	bits := uint(1)
	for 1<<bits < 2*max {
		bits++
	}
	m := &LocalityMonitor{
		slots:     make([]int32, 1<<bits),
		slotMask:  1<<bits - 1,
		hashShift: 64 - bits,
		tags:      make([]uint64, max),
		prev:      make([]int32, max),
		next:      make([]int32, max),
	}
	m.Reset()
	return m
}

// Reset empties the monitor, returning it to its just-constructed state.
func (m *LocalityMonitor) Reset() {
	clear(m.slots)
	m.head, m.tail, m.used = -1, -1, 0
}

// Observe records a touch of the cache line containing addr and returns
// whether the line was already being tracked (= high locality). On a miss
// with the monitor full it evicts the least recently touched tag.
//
//impact:hotpath
func (m *LocalityMonitor) Observe(addr uint64) bool {
	const lineBits = 6
	tag := addr >> lineBits
	slot, e := m.find(tag)
	if e >= 0 {
		if e != m.head {
			m.unlink(e)
			m.pushFront(e)
		}
		return true
	}
	if int(m.used) < len(m.tags) {
		e = m.used
		m.used++
	} else {
		e = m.tail
		m.unlink(e)
		old, _ := m.find(m.tags[e])
		m.deleteSlot(old)
		// Deletion may shorten the new tag's probe chain: probe again.
		slot, _ = m.find(tag)
	}
	m.tags[e] = tag
	m.slots[slot] = e + 1
	m.pushFront(e)
	return false
}

// home returns the tag's preferred slot (Fibonacci hashing).
//
//impact:hotpath
func (m *LocalityMonitor) home(tag uint64) uint64 {
	return (tag * 0x9e3779b97f4a7c15) >> m.hashShift
}

// find probes for tag. It returns the slot holding tag and its entry, or
// the empty slot that ends the probe chain and -1.
//
//impact:hotpath
func (m *LocalityMonitor) find(tag uint64) (uint64, int32) {
	i := m.home(tag)
	for {
		s := m.slots[i]
		if s == 0 {
			return i, -1
		}
		if m.tags[s-1] == tag {
			return i, s - 1
		}
		i = (i + 1) & m.slotMask
	}
}

// deleteSlot empties slot i and shifts later members of its probe chain
// back, so every remaining tag stays reachable from its home slot without
// tombstones.
//
//impact:hotpath
func (m *LocalityMonitor) deleteSlot(i uint64) {
	j := i
	for {
		m.slots[i] = 0
		for {
			j = (j + 1) & m.slotMask
			s := m.slots[j]
			if s == 0 {
				return
			}
			// The entry at j may fill the hole at i only if its home
			// does not lie cyclically in (i, j].
			h := m.home(m.tags[s-1])
			if (j-h)&m.slotMask >= (j-i)&m.slotMask {
				m.slots[i] = s
				i = j
				break
			}
		}
	}
}

// unlink removes entry e from the LRU list.
//
//impact:hotpath
func (m *LocalityMonitor) unlink(e int32) {
	p, n := m.prev[e], m.next[e]
	if p >= 0 {
		m.next[p] = n
	} else {
		m.head = n
	}
	if n >= 0 {
		m.prev[n] = p
	} else {
		m.tail = p
	}
}

// pushFront makes entry e the most recently touched.
//
//impact:hotpath
func (m *LocalityMonitor) pushFront(e int32) {
	m.prev[e], m.next[e] = -1, m.head
	if m.head >= 0 {
		m.prev[m.head] = e
	} else {
		m.tail = e
	}
	m.head = e
}

// PEIEngine executes PIM-enabled instructions against a memory controller.
type PEIEngine struct {
	ctrl     *memctrl.Controller
	mapper   *dram.AddrMapper
	monitor  *LocalityMonitor
	host     cache.Level
	costs    PEICosts
	counters *stats.Counters
}

// NewPEIEngine builds a PEI engine. host is the host-side execution path
// (the cache hierarchy); it may be nil, in which case all PEIs execute near
// memory regardless of locality.
func NewPEIEngine(ctrl *memctrl.Controller, mapper *dram.AddrMapper, host cache.Level, costs PEICosts) *PEIEngine {
	return &PEIEngine{
		ctrl:     ctrl,
		mapper:   mapper,
		monitor:  NewLocalityMonitor(256),
		host:     host,
		costs:    costs,
		counters: stats.NewFixed("host_side", "memory_side"),
	}
}

// Reset returns the engine to its just-constructed state over a rebuilt
// controller and mapper: the locality monitor is emptied and the counters
// zeroed, reusing their storage. The host path is kept.
func (e *PEIEngine) Reset(ctrl *memctrl.Controller, mapper *dram.AddrMapper, costs PEICosts) {
	e.ctrl, e.mapper, e.costs = ctrl, mapper, costs
	e.monitor.Reset()
	e.counters.Reset()
}

// Costs returns the engine's cost constants.
func (e *PEIEngine) Costs() PEICosts { return e.costs }

// Counters exposes dispatch statistics.
func (e *PEIEngine) Counters() *stats.Counters { return e.counters }

// Execute runs one PEI (e.g. pim_add) on the word at addr synchronously:
// the caller's clock should advance by the returned Latency. The PMU routes
// the PEI host-side when the locality monitor indicates cached data.
//
//impact:hotpath
func (e *PEIEngine) Execute(now int64, addr uint64, proc int) (PEIResult, error) {
	highLocality := e.monitor.Observe(addr)
	if highLocality && e.host != nil {
		e.counters.Add(CounterHostSide, 1)
		lat := e.costs.IssueCost + e.costs.HostExtra + e.host.Access(now+e.costs.IssueCost, addr, false)
		return PEIResult{Latency: lat, CompletedAt: now + lat, NearMemory: false}, nil
	}
	e.counters.Add(CounterMemorySide, 1)
	coord := e.mapper.Map(addr)
	bank := coord.FlatBank(e.ctrl.Device().Config())
	start := now + e.costs.IssueCost + e.costs.PEIOverhead
	res, err := e.ctrl.Access(start, bank, coord.Row, proc)
	if err != nil {
		return PEIResult{}, err
	}
	lat := e.costs.IssueCost + e.costs.PEIOverhead + res.Latency
	return PEIResult{
		Latency:     lat,
		CompletedAt: now + lat,
		NearMemory:  true,
		Outcome:     res.Outcome,
	}, nil
}

// ExecuteAsync issues a PEI without waiting for the memory-side operation:
// the caller's clock advances only by the issue cost, and CompletedAt tells
// a later memory fence when the operation drains. This is the sender-side
// fire-and-forget pattern of Listing 1.
//
//impact:hotpath
func (e *PEIEngine) ExecuteAsync(now int64, addr uint64, proc int) (PEIResult, error) {
	highLocality := e.monitor.Observe(addr)
	if highLocality && e.host != nil {
		e.counters.Add(CounterHostSide, 1)
		lat := e.costs.AsyncIssueCost + e.costs.HostExtra + e.host.Access(now+e.costs.AsyncIssueCost, addr, false)
		return PEIResult{Latency: e.costs.AsyncIssueCost, CompletedAt: now + lat, NearMemory: false}, nil
	}
	e.counters.Add(CounterMemorySide, 1)
	coord := e.mapper.Map(addr)
	bank := coord.FlatBank(e.ctrl.Device().Config())
	start := now + e.costs.AsyncIssueCost + e.costs.PEIOverhead
	res, err := e.ctrl.Activate(start, bank, coord.Row, proc)
	if err != nil {
		return PEIResult{}, err
	}
	return PEIResult{
		Latency:     e.costs.AsyncIssueCost,
		CompletedAt: start + res.Latency,
		NearMemory:  true,
		Outcome:     res.Outcome,
	}, nil
}
