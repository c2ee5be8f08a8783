package main

import (
	"bytes"
	"testing"
)

// seededWorkloads are the workloads whose inputs depend on the seed;
// paper-figures replays the same 14 artifacts at every seed.
var seededWorkloads = []string{"cold-sweep", "warm-grid", "restart-replay"}

func allRequests(t *testing.T, workload string, seed uint64) []request {
	t.Helper()
	in, err := genInputs(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(append([]request(nil), in.Fill...), in.Prime...), in.Pass...)
}

func TestSameSeedSameRequestBodies(t *testing.T) {
	for _, w := range workloadNames {
		a, b := allRequests(t, w, 7), allRequests(t, w, 7)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: %d vs %d requests", w, len(a), len(b))
		}
		for i := range a {
			if a[i].Method != b[i].Method || a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs between two generations at the same seed:\n%s %s %s\n%s %s %s",
					w, i, a[i].Method, a[i].Path, a[i].Body, b[i].Method, b[i].Path, b[i].Body)
			}
		}
	}
}

func runKeys(t *testing.T, reqs []request) map[string]bool {
	t.Helper()
	keys := map[string]bool{}
	for _, rq := range distinctSpecs(reqs) {
		runs, err := expandRuns(rq)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			keys[r.Key] = true
		}
	}
	return keys
}

func TestDifferentSeedsDisjointKeys(t *testing.T) {
	for _, w := range seededWorkloads {
		a, b := runKeys(t, allRequests(t, w, 1)), runKeys(t, allRequests(t, w, 2))
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("%s: no keys generated", w)
		}
		for k := range a {
			if b[k] {
				t.Fatalf("%s: content key %s generated at seeds 1 and 2", w, k)
			}
		}
	}
}

func TestEveryRunIsDistinct(t *testing.T) {
	// cold-sweep must simulate every run: no two runs of a pass may share
	// a content address, or the second would be a cache hit.
	in, err := genInputs("cold-sweep", 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := runKeys(t, in.Pass)
	want := 0
	for _, rq := range in.Pass {
		want += rq.Runs
	}
	if len(keys) != want {
		t.Fatalf("cold-sweep pass has %d distinct keys for %d runs", len(keys), want)
	}
}

func TestBalancedScenarioMix(t *testing.T) {
	for _, w := range seededWorkloads {
		in, err := genInputs(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		count := map[string]int{}
		for _, rq := range in.Pass {
			count[rq.Spec.Scenario]++
		}
		for _, scn := range covertScenarios {
			if count[scn] != count[covertScenarios[0]] {
				t.Fatalf("%s: scenario mix is unbalanced: %v", w, count)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestMidMeanDropsOuterQuarters(t *testing.T) {
	// 8 values: the lowest two and the highest two are dropped.
	if got := midMean([]float64{100, 4, 1, 5, 3, 6, 0, 2}); got != 3.5 {
		t.Fatalf("midMean = %v, want 3.5", got)
	}
	// Fewer than 4 values: nothing is dropped.
	if got := midMean([]float64{1, 2, 6}); got != 3 {
		t.Fatalf("midMean of 3 values = %v, want 3", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "http", Start: 0, End: 100, Parent: -1},
		{Name: "server", Start: 10, End: 50, Parent: 0},
		{Name: "server", Start: 40, End: 70, Parent: 0}, // overlaps the first child
		{Name: "pack.get", Start: 20, End: 30, Parent: 1},
	}
	all := func(span) bool { return true }
	if got := selfTimesUS(spans, all, "http"); len(got) != 1 || got[0] != 0.04 {
		t.Fatalf("http self time = %v us, want [0.04]", got)
	}
	if got := selfTimesUS(spans, all, "server"); len(got) != 2 || got[0] != 0.03 || got[1] != 0.03 {
		t.Fatalf("server self times = %v us, want [0.03 0.03]", got)
	}
}
