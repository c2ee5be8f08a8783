package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/sim"
)

// This file keeps the generic document pipeline that resolved specs before
// the typed layering in spec.go: the Table 2 defaults as a map[string]any
// document, the spec's config deep-merged over it, each grid point set by
// dot-path on a deep copy, and the result round-tripped through
// json.Marshal, sim.FromJSON and ToJSON before hashing. It is the reference
// the typed path is checked against (TestSpecKeysMatchReference,
// FuzzSpecKeysMatchReference, BenchmarkSpecKeys/reference): content keys
// are persisted in pack bundles, so both paths must agree byte for byte.

// refExpansion is the reference form of Expansion.
type refExpansion struct {
	scn   scenario
	scale figures.Scale
	base  map[string]any
	axes  []refAxis
	total int
}

type refAxis struct {
	path   string
	vals   []any
	labels []string
}

// refExpansionOf resolves the spec through the reference pipeline, with
// the same front-matter checks, grid guard and first-point probe as
// Spec.Expansion.
func refExpansionOf(s Spec, limit int) (*refExpansion, error) {
	scn, ok := scenarioByName(s.Scenario)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownScenario, s.Scenario)
	}
	scale, err := figures.ParseScale(s.Scale)
	if err != nil {
		return nil, err
	}
	if !scn.ConfigSensitive && (len(s.Config) > 0 || len(s.Grid) > 0) {
		return nil, fmt.Errorf("exp: scenario %q replays a fixed paper artifact and ignores sim.Config", s.Scenario)
	}
	base, err := defaultConfigDoc()
	if err != nil {
		return nil, err
	}
	if len(s.Config) > 0 {
		patch, err := decodeDoc(s.Config)
		if err != nil {
			return nil, fmt.Errorf(`exp: spec field "config": %v`, err)
		}
		deepMerge(base, patch)
	}

	paths := make([]string, 0, len(s.Grid))
	for path := range s.Grid {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	total := 1
	axes := make([]refAxis, 0, len(paths))
	for _, path := range paths {
		raws := s.Grid[path]
		if len(raws) == 0 {
			return nil, fmt.Errorf(`exp: grid field %q has no values`, path)
		}
		if total > limit/len(raws) {
			return nil, fmt.Errorf("%w: grid expands to more than %d runs", ErrGridTooLarge, limit)
		}
		total *= len(raws)
		ax := refAxis{path: path, vals: make([]any, len(raws)), labels: make([]string, len(raws))}
		for i, raw := range raws {
			val, err := decodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("exp: grid field %q: %v", path, err)
			}
			canon, err := json.Marshal(val)
			if err != nil {
				return nil, fmt.Errorf("exp: grid field %q: %v", path, err)
			}
			ax.vals[i] = val
			ax.labels[i] = string(canon)
		}
		axes = append(axes, ax)
	}
	x := &refExpansion{scn: scn, scale: scale, base: base, axes: axes, total: total}
	if _, err := x.runAt(0); err != nil {
		return nil, err
	}
	return x, nil
}

// runAt materializes run i: deep-copy the base document, set each axis's
// value at its path, then validate and hash through refNewRun.
func (x *refExpansion) runAt(i int) (Run, error) {
	cfgDoc := deepCopy(x.base)
	params := make(map[string]string, len(x.axes))
	stride := x.total
	for _, ax := range x.axes {
		stride /= len(ax.vals)
		j := (i / stride) % len(ax.vals)
		if err := setPath(cfgDoc, ax.path, ax.vals[j]); err != nil {
			return Run{}, err
		}
		params[ax.path] = ax.labels[j]
	}
	run, err := refNewRun(x.scn, x.scale, cfgDoc, params)
	if err != nil {
		return Run{}, fmt.Errorf("exp: grid point %s: %w", FormatParams(params), err)
	}
	return run, nil
}

// refNewRun validates one concrete config document and computes the run's
// content address: marshal, sim.FromJSON, ToJSON, marshal again, SHA-256.
func refNewRun(scn scenario, scale figures.Scale, cfgDoc map[string]any, params map[string]string) (Run, error) {
	cfgJSON, err := json.Marshal(cfgDoc)
	if err != nil {
		return Run{}, err
	}
	cfg, err := sim.FromJSON(cfgJSON)
	if err != nil {
		return Run{}, err
	}
	canonCfg, err := cfg.ToJSON()
	if err != nil {
		return Run{}, err
	}
	canonical, err := json.Marshal(map[string]any{
		"scenario": scn.Name,
		"scale":    scale.String(),
		"config":   json.RawMessage(canonCfg),
	})
	if err != nil {
		return Run{}, err
	}
	sum := sha256.Sum256(canonical)
	return Run{
		Scenario: scn.Name,
		Scale:    scale,
		Config:   cfg,
		Params:   params,
		Key:      hex.EncodeToString(sum[:]),
		scn:      scn,
	}, nil
}

// defaultConfigDoc returns sim.DefaultConfig as a canonical document.
func defaultConfigDoc() (map[string]any, error) {
	data, err := sim.DefaultConfig().ToJSON()
	if err != nil {
		return nil, err
	}
	return decodeDoc(data)
}

// decodeDoc decodes a JSON object, preserving numbers as json.Number so
// re-encoding does not round integers through float64.
func decodeDoc(data []byte) (map[string]any, error) {
	v, err := decodeValue(data)
	if err != nil {
		return nil, err
	}
	doc, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("want a JSON object, got %s", data)
	}
	return doc, nil
}

// deepMerge overlays src onto dst: nested objects merge recursively,
// everything else (including arrays) replaces wholesale.
func deepMerge(dst, src map[string]any) {
	//lint:ignore nodeterminism writes land on disjoint keys, so merge order commutes
	for k, sv := range src {
		if sm, ok := sv.(map[string]any); ok {
			if dm, ok := dst[k].(map[string]any); ok {
				deepMerge(dm, sm)
				continue
			}
		}
		dst[k] = sv
	}
}

// deepCopy clones a document so grid points never alias each other.
func deepCopy(doc map[string]any) map[string]any {
	out := make(map[string]any, len(doc))
	for k, v := range doc {
		if m, ok := v.(map[string]any); ok {
			out[k] = deepCopy(m)
		} else {
			out[k] = v
		}
	}
	return out
}

// setPath assigns a value at a dot-separated field path, creating missing
// intermediate objects (sim.FromJSON then rejects paths that do not name
// real config fields).
func setPath(doc map[string]any, path string, val any) error {
	segs := strings.Split(path, ".")
	cur := doc
	for _, seg := range segs[:len(segs)-1] {
		next, ok := cur[seg]
		if !ok {
			child := map[string]any{}
			cur[seg] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("exp: grid field %q: %q is not a config section", path, seg)
		}
		cur = child
	}
	cur[segs[len(segs)-1]] = val
	return nil
}

// specAxes is the grid-axis pool the randomized reference trials draw
// from: valid leaves, equivalent spellings of one value, null leaves,
// section-valued points (noise, the ACT section, one with a duplicate
// key), values that fail Validate, and rare misnamed paths. A section
// axis is one with an object or null value: the reference pipeline reset
// what lies under its path to Table 2, so the config overlay keeps clear
// of it (TestSpecResolutionClasses pins that difference).
var specAxes = []struct {
	path    string
	vals    []string
	section bool
	rare    bool
}{
	{path: "llc_bytes", vals: []string{"2097152", "4194304", "8388608", "16777216"}},
	{path: "llc_ways", vals: []string{"8", "16", "0"}},
	{path: "llc_latency", vals: []string{"null", "20"}, section: true},
	{path: "costs.flush_overhead", vals: []string{"100", "200", "300"}},
	{path: "noise.seed", vals: []string{"1", "2", "3", "4", "5"}},
	{path: "noise.events_per_mcycle", vals: []string{"0", "50.5", "0.35e1"}},
	{path: "noise", vals: []string{`{"seed":5}`, `{"seed":1,"seed":7}`, `{"events_per_mcycle":1.5,"seed":9}`}, section: true},
	{path: "mem.defense", vals: []string{`"none"`, `"crp"`, `"act"`, `2`}},
	{path: "mem.act", vals: []string{`{"epoch_cycles":100000,"conflict_threshold":4}`, `{"epoch_cycles":0}`}, section: true},
	{path: "mapping", vals: []string{`"row-interleaved"`, `"bank-xor"`}},
	{path: "llcbytes", vals: []string{"1"}, rare: true},
	{path: "cores.deep", vals: []string{"1"}, rare: true},
}

// overlayLeaves is the pool of config overlay fields (path, JSON value),
// including a null leaf; the rare ones fail Validate, have the wrong type
// or name no field.
var overlayLeaves = []struct {
	path, val string
	rare      bool
}{
	{path: "cores", val: "2"},
	{path: "cores", val: "0", rare: true},
	{path: "cores", val: `"four"`, rare: true},
	{path: "llc_bytes", val: "4194304"},
	{path: "llc_latency", val: "30"},
	{path: "enable_prefetchers", val: "false"},
	{path: "mapping", val: `"row-interleaved"`},
	{path: "mem.defense", val: `"crp"`},
	{path: "mem.defense", val: `"act"`, rare: true},
	{path: "mem.request_overhead", val: "10"},
	{path: "mem.act.epoch_cycles", val: "50000"},
	{path: "mem.act.conflict_threshold", val: "3"},
	{path: "noise.seed", val: "9"},
	{path: "noise.events_per_mcycle", val: "null"},
	{path: "costs.flush_overhead", val: "150"},
	{path: "dram.timing.trcd", val: "40"},
	{path: "bogus", val: "1", rare: true},
}

// randomSpec draws a random covert-pnm spec: a random subset of grid axes
// (possibly none), each with a random non-empty value subset, capped near
// 512 runs, and a random config overlay (possibly absent).
func randomSpec(rng *rand.Rand) Spec {
	spec := Spec{Scenario: "covert-pnm"}
	var sections []string
	if rng.Intn(8) != 0 {
		spec.Grid = map[string][]json.RawMessage{}
		total := 1
		for _, ax := range specAxes {
			if ax.rare && rng.Intn(16) != 0 || rng.Intn(2) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(ax.vals))
			if total*n > 512 {
				n = 1
			}
			total *= n
			vals := make([]json.RawMessage, n)
			for i, j := range rng.Perm(len(ax.vals))[:n] {
				vals[i] = json.RawMessage(ax.vals[j])
			}
			spec.Grid[ax.path] = vals
			if ax.section {
				sections = append(sections, ax.path)
			}
		}
	}
	if rng.Intn(3) == 0 {
		return spec
	}
	overlay := map[string]any{}
	for _, leaf := range overlayLeaves {
		if leaf.rare && rng.Intn(16) != 0 || rng.Intn(4) != 0 || underAny(leaf.path, sections) {
			continue
		}
		segs := strings.Split(leaf.path, ".")
		doc := overlay
		for _, seg := range segs[:len(segs)-1] {
			child, ok := doc[seg].(map[string]any)
			if !ok {
				child = map[string]any{}
				doc[seg] = child
			}
			doc = child
		}
		doc[segs[len(segs)-1]] = json.RawMessage(leaf.val)
	}
	spec.Config, _ = json.Marshal(overlay) // maps of raw JSON always encode
	return spec
}

// underAny reports whether path is one of roots or lies under one.
func underAny(path string, roots []string) bool {
	for _, root := range roots {
		if path == root || strings.HasPrefix(path, root+".") {
			return true
		}
	}
	return false
}

// checkSpecKeysMatchReference asserts the typed path resolves the spec
// exactly as the reference pipeline does: the same accept/reject outcome
// for the spec and for every grid point, the same total, expansion order,
// content keys and labels, through both Expansion and Expand. It returns
// how many runs both paths accepted.
func checkSpecKeysMatchReference(t *testing.T, spec Spec) int {
	t.Helper()
	doc, _ := json.Marshal(spec)
	x, err := spec.Expansion(MaxRuns)
	ref, refErr := refExpansionOf(spec, MaxRuns)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("spec %s:\ntyped error %v\nreference error %v", doc, err, refErr)
	}
	runs, expandErr := spec.Expand()
	if err != nil {
		if expandErr == nil {
			t.Fatalf("spec %s: Expand accepted what Expansion rejected (%v)", doc, err)
		}
		return 0
	}
	if x.Total() != ref.total {
		t.Fatalf("spec %s: Total() = %d, reference %d", doc, x.Total(), ref.total)
	}
	accepted := 0
	for i := 0; i < x.Total(); i++ {
		got, err := x.RunAt(i)
		want, refErr := ref.runAt(i)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("spec %s run %d:\ntyped error %v\nreference error %v", doc, i, err, refErr)
		}
		if err != nil {
			continue
		}
		accepted++
		if got.Key != want.Key {
			t.Fatalf("spec %s run %d (%s): key %s, reference %s", doc, i, FormatParams(want.Params), got.Key, want.Key)
		}
		if FormatParams(got.Params) != FormatParams(want.Params) {
			t.Fatalf("spec %s run %d: params %s, reference %s", doc, i, FormatParams(got.Params), FormatParams(want.Params))
		}
		if got.Scenario != want.Scenario || got.Scale != want.Scale {
			t.Fatalf("spec %s run %d: identity (%s, %s), reference (%s, %s)", doc, i, got.Scenario, got.Scale, want.Scenario, want.Scale)
		}
		if expandErr == nil && (runs[i].Key != got.Key || FormatParams(runs[i].Params) != FormatParams(got.Params)) {
			t.Fatalf("spec %s run %d: Expand and RunAt disagree", doc, i)
		}
	}
	if (expandErr == nil) != (accepted == x.Total()) {
		t.Fatalf("spec %s: Expand error %v, but %d of %d grid points valid", doc, expandErr, accepted, x.Total())
	}
	if expandErr == nil && len(runs) != x.Total() {
		t.Fatalf("spec %s: Expand produced %d runs, Total() = %d", doc, len(runs), x.Total())
	}
	for _, bad := range []int{-1, x.Total()} {
		if _, err := x.RunAt(bad); err == nil {
			t.Fatalf("RunAt(%d) accepted an out-of-range index", bad)
		}
	}
	return accepted
}

// TestSpecKeysMatchReference checks the typed path against the reference
// on the benchmark's grid shapes, the example spec, the corners (empty
// grid, single-value axes, null leaves, the ACT section) and randomized
// specs with config overlays.
func TestSpecKeysMatchReference(t *testing.T) {
	example, err := os.ReadFile("../../examples/sweep-llc.json")
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{
		string(example),
		`{"scenario": "covert-pnm"}`,
		`{"scenario": "rowbuffer", "scale": "full"}`,
		// warm-grid: 4x4 over llc_bytes and 52-bit noise seeds.
		`{"scenario": "covert-drama-eviction", "scale": "quick", "grid": {
			"llc_bytes": [2097152, 4194304, 8388608, 16777216],
			"noise.seed": [4503599627370495, 1, 3141592653589793, 77]}}`,
		// cold-sweep: a seeded noise stream and a 2-point llc_bytes grid.
		`{"scenario": "covert-dma", "scale": "quick", "config": {"noise": {"seed": 2718281828459045}},
			"grid": {"llc_bytes": [4194304, 8388608]}}`,
		`{"scenario": "covert-pum", "grid": {"llc_bytes": [4194304], "noise.seed": [7], "mem.defense": ["crp"]}}`,
		`{"scenario": "covert-pnm", "config": {"llc_latency": null, "cores": null}, "grid": {"noise.seed": [null, 3]}}`,
		`{"scenario": "covert-pnm", "config": {"mem": {"defense": "act", "act": {"epoch_cycles": 100000, "conflict_threshold": 4, "penalty_epochs": 2}}},
			"grid": {"mem.act.conflict_threshold": [1, 8], "mem.act.penalty_epochs": [0, 3]}}`,
		`{"scenario": "covert-pnm", "grid": {"mem.defense": ["act"], "mem.act": [{"epoch_cycles": 100000, "conflict_threshold": 4}]}}`,
		`{"scenario": "covert-pnm", "config": {"mem": {"defense": "act"}}}`,
	}
	for _, doc := range docs {
		spec, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		checkSpecKeysMatchReference(t, spec)
	}
	rng := rand.New(rand.NewSource(20250808))
	specs, runs := 0, 0
	for trial := 0; trial < 60; trial++ {
		if n := checkSpecKeysMatchReference(t, randomSpec(rng)); n > 0 {
			specs++
			runs += n
		}
	}
	// The pool includes values both paths reject; most specs and runs
	// must still get as far as a key comparison.
	if specs < 30 || runs < 1000 {
		t.Fatalf("only %d of 60 random specs (%d runs) reached a key comparison", specs, runs)
	}
	t.Logf("%d of 60 random specs, %d runs compared", specs, runs)
}

// FuzzSpecKeysMatchReference fuzzes the same property: any seed's random
// spec must resolve identically through both paths.
func FuzzSpecKeysMatchReference(f *testing.F) {
	for _, seed := range []int64{1, 42, 20250808} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSpecKeysMatchReference(t, randomSpec(rand.New(rand.NewSource(seed))))
	})
}

// TestSpecResolutionClasses pins how the typed layering resolves the
// spec shapes where the reference pipeline resolved a config the spec
// did not ask for, and checks that the reference really differs on each.
// Stored results cannot go stale over this: a key hashes the resolved
// config, not the spelling that produced it.
func TestSpecResolutionClasses(t *testing.T) {
	defaults := sim.DefaultConfig()
	cases := []struct {
		name, doc string
		check     func(t *testing.T, runs []Run, err error)
	}{
		{
			// encoding/json matches field names case-insensitively; the
			// reference kept the variant beside the canonical name and
			// the canonical one won, so both runs got the default seed.
			"case-variant grid path applies", `{"scenario": "covert-pnm", "grid": {"Noise.Seed": [1, 2]}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.Noise.Seed != 1 || runs[1].Config.Noise.Seed != 2 || runs[0].Key == runs[1].Key {
					t.Fatalf("err %v, seeds %v", err, seeds(runs))
				}
			},
		},
		{
			"case-variant config field applies", `{"scenario": "covert-pnm", "config": {"LLC_Bytes": 4194304}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.LLCBytes != 4<<20 {
					t.Fatalf("err %v, llc_bytes %d", err, runs[0].Config.LLCBytes)
				}
			},
		},
		{
			// The reference decoded the overlay into a map, so the last
			// "noise" object replaced the first wholesale.
			"duplicate config sections merge", `{"scenario": "covert-pnm", "config": {"noise": {"seed": 1}, "noise": {"events_per_mcycle": 5}}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.Noise != (sim.NoiseConfig{EventsPerMCycle: 5, Seed: 1}) {
					t.Fatalf("err %v, noise %+v", err, runs[0].Config.Noise)
				}
			},
		},
		{
			// The reference replaced the whole section, so the spec's
			// config overrides under it fell back to Table 2.
			"object grid point keeps config overrides", `{"scenario": "covert-pnm", "config": {"noise": {"events_per_mcycle": 7}}, "grid": {"noise": [{"seed": 5}]}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.Noise != (sim.NoiseConfig{EventsPerMCycle: 7, Seed: 5}) {
					t.Fatalf("err %v, noise %+v", err, runs[0].Config.Noise)
				}
			},
		},
		{
			"null grid point changes nothing", `{"scenario": "covert-pnm", "config": {"llc_latency": 30}, "grid": {"llc_latency": [null, 40]}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.LLCLatency != 30 || runs[1].Config.LLCLatency != 40 {
					t.Fatalf("err %v, llc_latency %d %d", err, runs[0].Config.LLCLatency, runs[1].Config.LLCLatency)
				}
			},
		},
		{
			// The reference stored the null and then could not descend
			// through it.
			"null config section does not block grid paths", `{"scenario": "covert-pnm", "config": {"noise": null}, "grid": {"noise.seed": [3]}}`,
			func(t *testing.T, runs []Run, err error) {
				if err != nil || runs[0].Config.Noise != (sim.NoiseConfig{EventsPerMCycle: defaults.Noise.EventsPerMCycle, Seed: 3}) {
					t.Fatalf("err %v, noise %+v", err, runs[0].Config.Noise)
				}
			},
		},
		{
			// The config decodes before any grid point, so a bad field is
			// an error even where a grid axis would overwrite it.
			"bad config field rejected under a grid axis", `{"scenario": "covert-pnm", "config": {"llc_bytes": "big"}, "grid": {"llc_bytes": [4194304]}}`,
			func(t *testing.T, runs []Run, err error) {
				if err == nil || !strings.Contains(err.Error(), `spec field "config"`) || !strings.Contains(err.Error(), "llc_bytes") {
					t.Fatalf("err %v, want a config error naming llc_bytes", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			runs, err := spec.Expand()
			tc.check(t, runs, err)
			if !referenceDiffers(spec, runs, err) {
				t.Fatalf("the reference pipeline resolves %s the same way", tc.doc)
			}
		})
	}

	// A typed decode reads null as "change nothing", but a spec's config
	// must still be an object: "config": null stays a 400 naming the field.
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	for _, doc := range []string{`null`, `[]`, `4`} {
		rec := doRequest(t, h, http.MethodPost, "/v1/run", `{"scenario": "covert-pnm", "config": `+doc+`}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `spec field \"config\": want a JSON object`) {
			t.Fatalf(`"config": %s = %d %s, want 400 naming the config field`, doc, rec.Code, rec.Body)
		}
	}
}

// seeds lists the runs' noise seeds.
func seeds(runs []Run) []uint64 {
	out := make([]uint64, len(runs))
	for i, r := range runs {
		out[i] = r.Config.Noise.Seed
	}
	return out
}

// referenceDiffers reports whether the reference pipeline resolves spec
// differently from the typed result (runs, err): another outcome, run
// count or key.
func referenceDiffers(spec Spec, runs []Run, err error) bool {
	ref, refErr := refExpansionOf(spec, MaxRuns)
	if (err == nil) != (refErr == nil) {
		return true
	}
	if err != nil {
		return false
	}
	if ref.total != len(runs) {
		return true
	}
	for i, run := range runs {
		want, err := ref.runAt(i)
		if err != nil || want.Key != run.Key {
			return true
		}
	}
	return false
}

// BenchmarkSpecKeys derives every run key of one warm-grid spec (a 4x4
// grid over llc_bytes and 52-bit noise seeds) through the typed path and
// through the reference pipeline, reporting allocations per run. The
// typed subbenchmark fails if its allocs/run exceed half the reference's,
// both measured in the same process.
func BenchmarkSpecKeys(b *testing.B) {
	spec, err := ParseSpec([]byte(`{"scenario": "covert-pnm", "scale": "quick", "grid": {
		"llc_bytes": [2097152, 4194304, 8388608, 16777216],
		"noise.seed": [4503599627370495, 1, 3141592653589793, 77]}}`))
	if err != nil {
		b.Fatal(err)
	}
	typed := func() int {
		x, err := spec.Expansion(MaxRuns)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < x.Total(); j++ {
			if _, err := x.RunAt(j); err != nil {
				b.Fatal(err)
			}
		}
		return x.Total()
	}
	reference := func() int {
		x, err := refExpansionOf(spec, MaxRuns)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < x.total; j++ {
			if _, err := x.runAt(j); err != nil {
				b.Fatal(err)
			}
		}
		return x.total
	}
	allocsPerRun := func(keys func() int) float64 {
		runs := 0
		allocs := testing.AllocsPerRun(5, func() { runs = keys() })
		return allocs / float64(runs)
	}

	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			typed()
		}
		b.StopTimer()
		typedAllocs, refAllocs := allocsPerRun(typed), allocsPerRun(reference)
		b.ReportMetric(typedAllocs, "allocs/run")
		if typedAllocs > refAllocs/2 {
			b.Fatalf("typed key derivation allocates %.1f objects per run vs %.1f for the reference: more than half", typedAllocs, refAllocs)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reference()
		}
		b.StopTimer()
		b.ReportMetric(allocsPerRun(reference), "allocs/run")
	})
}
