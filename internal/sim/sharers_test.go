package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
)

// allCoreBackInvalidate is the original inclusive-LLC hook, kept as the
// reference for the sharer filter: every LLC eviction probes the L1 and L2
// of every core.
func allCoreBackInvalidate(m *Machine) func(addr uint64, _ uint16) {
	return func(addr uint64, _ uint16) {
		for _, c := range m.cores {
			c.hier.L1().Invalidate(addr)
			c.hier.L2().Invalidate(addr)
		}
	}
}

// sharerStressConfig shrinks the LLC to 256 KiB x 4 ways (1024 sets) under
// the 2 MiB private L2s, so a handful of same-set lines keeps the LLC
// evicting lines the L1/L2 still hold.
func sharerStressConfig() Config {
	cfg := quietConfig()
	cfg.LLCBytes = 256 << 10
	cfg.LLCWays = 4
	return cfg
}

// sharerStressAddrs returns 48 lines that share one LLC set and 48 spread
// over other sets and pages.
func sharerStressAddrs() []uint64 {
	const llcSetStride = 1024 * 64
	var addrs []uint64
	for i := uint64(0); i < 48; i++ {
		addrs = append(addrs, 0x4000_0000+i*llcSetStride)
		addrs = append(addrs, 0x8000_0000+i*4160)
	}
	return addrs
}

// runSharerStream applies one seeded random stream of loads, stores,
// overlapped loads, clflushes, PEIs and fences from all four cores, and
// returns every op's latency.
func runSharerStream(t *testing.T, m *Machine, addrs []uint64, seed uint64, n int) []int64 {
	t.Helper()
	rng := stats.NewRNG(seed)
	lats := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		c := m.Core(rng.Intn(m.NumCores()))
		addr := addrs[rng.Intn(len(addrs))] | uint64(rng.Intn(8))*8
		pc := uint64(0x400000 + rng.Intn(4)*16)
		var lat int64
		switch op := rng.Intn(100); {
		case op < 35:
			lat = c.Load(addr, pc)
		case op < 45:
			lat = c.Hierarchy().Store(c.Now(), addr, pc)
		case op < 55:
			lat = c.LoadOverlapped(addr, pc, 0.3)
		case op < 70:
			lat = c.Flush(addr)
		case op < 82:
			res, err := c.PEIAccess(addr)
			if err != nil {
				t.Fatal(err)
			}
			lat = res.Latency
		case op < 92:
			res, err := c.PEIActivate(addr)
			if err != nil {
				t.Fatal(err)
			}
			lat = res.Latency
		case op < 96:
			lat = c.LoadUncached(addr)
		default:
			c.Fence()
			lat = c.Now()
		}
		lats = append(lats, lat)
	}
	return lats
}

// machineState captures every observable the sharer filter could disturb:
// per-level residency of each stream address, all counters, core clocks.
func machineState(m *Machine, addrs []uint64) map[string]any {
	st := map[string]any{
		"llc":      m.LLC().Counters().Snapshot(),
		"pei":      m.PEI().Counters().Snapshot(),
		"rowclone": m.RowClone().Counters().Snapshot(),
	}
	llcHeld := make([]bool, len(addrs))
	for i, a := range addrs {
		llcHeld[i] = m.LLC().Contains(a)
	}
	st["llc.contains"] = llcHeld
	for ci := 0; ci < m.NumCores(); ci++ {
		c := m.Core(ci)
		l1, l2 := c.Hierarchy().L1(), c.Hierarchy().L2()
		held := make([][2]bool, len(addrs))
		for i, a := range addrs {
			held[i] = [2]bool{l1.Contains(a), l2.Contains(a)}
		}
		p := fmt.Sprintf("core%d.", ci)
		st[p+"contains"] = held
		st[p+"l1"] = l1.Counters().Snapshot()
		st[p+"l2"] = l2.Counters().Snapshot()
		st[p+"mmu"] = c.MMU().Counters().Snapshot()
		st[p+"clock"] = c.Now()
	}
	return st
}

// TestSharerFilterMatchesAllCoreBackInvalidation runs the same random
// multi-core stream on a machine that back-invalidates only an evicted
// line's sharers (plus orphans) and on one that probes every core, and
// requires identical latencies, residency at every level and counters —
// before and after a pooled Reset.
func TestSharerFilterMatchesAllCoreBackInvalidation(t *testing.T) {
	cfg := sharerStressConfig()
	filtered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all.llc.SetEvictHook(allCoreBackInvalidate(all))
	addrs := sharerStressAddrs()

	for round, seed := range []uint64{1, 2, 3} {
		if round > 0 {
			if !filtered.Reset(cfg) || !all.Reset(cfg) {
				t.Fatal("Reset refused an unchanged shape")
			}
		}
		got := runSharerStream(t, filtered, addrs, seed, 20000)
		want := runSharerStream(t, all, addrs, seed, 20000)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: op %d latency %d with sharer filter, %d with all-core back-invalidation", seed, i, got[i], want[i])
			}
		}
		gs, ws := machineState(filtered, addrs), machineState(all, addrs)
		for k, w := range ws {
			if !reflect.DeepEqual(gs[k], w) {
				t.Fatalf("seed %d: %s differs:\nfiltered %v\nall-core %v", seed, k, gs[k], w)
			}
		}
		if filtered.LLC().Counters().Value(cache.CounterHit) == 0 {
			t.Fatalf("seed %d: stream never hit the LLC", seed)
		}
	}
}
