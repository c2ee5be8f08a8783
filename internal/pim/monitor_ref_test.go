package pim

import (
	"testing"

	"repro/internal/stats"
)

// refMonitor is the original map-and-scan locality monitor, kept as the
// reference the array LRU must match: on a miss with the table full it
// ranges over every entry to evict the one with the oldest touch tick.
type refMonitor struct {
	entries map[uint64]int64
	max     int
	tick    int64
}

func newRefMonitor(max int) *refMonitor {
	return &refMonitor{entries: make(map[uint64]int64, max), max: max}
}

func (m *refMonitor) Observe(addr uint64) bool {
	const lineBits = 6
	tag := addr >> lineBits
	m.tick++
	_, hit := m.entries[tag]
	if !hit && len(m.entries) >= m.max {
		var oldTag uint64
		oldTick := m.tick + 1
		for t, when := range m.entries {
			if when < oldTick {
				oldTick, oldTag = when, t
			}
		}
		delete(m.entries, oldTag)
	}
	m.entries[tag] = m.tick
	return hit
}

// checkMonitorMatchesReference feeds one random address stream to both
// monitors and fails at the first diverging Observe. Addresses come from a
// pool of about 1.5x the capacity, with a bias toward recent addresses, so
// the stream mixes hits, cold fills and capacity evictions; a sparse
// spread of line tags exercises long probe chains in the tag table.
func checkMonitorMatchesReference(t *testing.T, seed uint64, capacity, n int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	pool := make([]uint64, capacity+capacity/2+1)
	for i := range pool {
		pool[i] = rng.Uint64() &^ 63
		if i%3 == 0 {
			// Runs of adjacent lines, as the attackers' batches touch.
			pool[i] = uint64(i) << 6
		}
	}
	got, want := NewLocalityMonitor(capacity), newRefMonitor(capacity)
	recent := 0
	for i := 0; i < n; i++ {
		var idx int
		if rng.Bool(0.5) {
			idx = (recent + rng.Intn(capacity/4+1)) % len(pool)
		} else {
			idx = rng.Intn(len(pool))
		}
		recent = idx
		addr := pool[idx] | uint64(rng.Intn(64))
		if g, w := got.Observe(addr), want.Observe(addr); g != w {
			t.Fatalf("seed %d capacity %d: Observe #%d (%#x) = %v, reference %v", seed, capacity, i, addr, g, w)
		}
	}
}

func TestLocalityMonitorMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 17, 256} {
		for seed := uint64(1); seed <= 4; seed++ {
			checkMonitorMatchesReference(t, seed, capacity, 20000)
		}
	}
}

func TestLocalityMonitorResetMatchesFresh(t *testing.T) {
	m := NewLocalityMonitor(256)
	for a := uint64(0); a < 1000; a++ {
		m.Observe(a * 4096)
	}
	m.Reset()
	fresh := NewLocalityMonitor(256)
	for a := uint64(0); a < 600; a++ {
		addr := (a % 300) * 4160
		if g, w := m.Observe(addr), fresh.Observe(addr); g != w {
			t.Fatalf("Observe(%#x) after Reset = %v, fresh monitor %v", addr, g, w)
		}
	}
}

func FuzzLocalityMonitorMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(256))
	f.Add(uint64(7), uint16(5))
	f.Add(uint64(42), uint16(64))
	f.Fuzz(func(t *testing.T, seed uint64, capacity uint16) {
		checkMonitorMatchesReference(t, seed, int(capacity%512)+1, 4000)
	})
}

func BenchmarkLocalityMonitorObserve(b *testing.B) {
	// Fresh lines every batch, as the PnM sender issues them: nearly every
	// Observe misses and evicts once the monitor is full.
	m := NewLocalityMonitor(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Observe(uint64(i) << 6)
	}
}
