package cache

import (
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// refSelectVictim is the original victim selection, kept as the reference
// the one-pass version must match: an invalid-way sweep, then for SRRIP
// repeated aging sweeps until some way reaches srripMax, and for LRU a
// scan for the oldest touch.
func refSelectVictim(policy ReplacementPolicy, epoch uint32, ways []line) int {
	for i := range ways {
		if ways[i].epoch != epoch {
			return i
		}
	}
	if policy == PolicySRRIP {
		for {
			for i := range ways {
				if ways[i].rrpv >= srripMax {
					return i
				}
			}
			for i := range ways {
				ways[i].rrpv++
			}
		}
	}
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	return victim
}

// checkVictimMatchesReference draws random sets — RRPVs in [0, srripMax],
// distinct LRU ticks, an occasional stale or empty way — and requires the
// same victim and the same post-selection line state from both versions.
func checkVictimMatchesReference(t *testing.T, seed uint64, sets int) {
	t.Helper()
	rng := stats.NewRNG(seed)
	for _, policy := range []ReplacementPolicy{PolicySRRIP, PolicyLRU} {
		c := &Cache{cfg: Config{Policy: policy}, epoch: 5}
		for s := 0; s < sets; s++ {
			ways := make([]line, 1+rng.Intn(16))
			for i := range ways {
				ways[i] = line{
					tag:     rng.Uint64(),
					epoch:   c.epoch,
					lastUse: int64(rng.Intn(1 << 20)),
					rrpv:    uint8(rng.Intn(srripMax + 1)),
				}
				if rng.Bool(0.03) {
					ways[i].epoch = c.epoch - 1 // stale: invalid after a Reset
				}
			}
			want := append([]line(nil), ways...)
			got, ref := c.selectVictim(ways), refSelectVictim(policy, c.epoch, want)
			if got != ref {
				t.Fatalf("seed %d %v set %d: victim %d, reference %d (ways %+v)", seed, policy, s, got, ref, want)
			}
			for i := range ways {
				if ways[i] != want[i] {
					t.Fatalf("seed %d %v set %d way %d: state %+v, reference %+v", seed, policy, s, i, ways[i], want[i])
				}
			}
		}
	}
}

func TestSelectVictimMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		checkVictimMatchesReference(t, seed, 5000)
	}
}

func FuzzSelectVictimMatchesReference(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(99))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkVictimMatchesReference(t, seed, 200)
	})
}

// TestLineSize pins the per-line footprint: the sharer mask must live in
// padding, since every cache level holds one line struct per way (an 8 MiB
// LLC alone holds 128k of them).
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("line is %d bytes, want 24", got)
	}
}
