// Package exp is the experiment engine: it turns declarative JSON specs —
// a scenario name, sim.Config overrides, and a parameter grid — into
// concrete simulator runs, schedules them over a bounded worker pool, and
// memoizes every result in a content-addressed cache. Because the whole
// simulator is deterministic (per-core logical clocks, seeded noise, no
// wall-clock reads), a concrete run's canonical JSON identity maps to
// exactly one report, so repeated and overlapping sweeps are served from
// cache instead of re-simulated.
//
// The cache is built for concurrent serving: entries are sharded by key
// hash behind per-shard locks, and Cache.Compute coalesces identical
// in-flight runs (singleflight) so two clients requesting the same sweep
// at once trigger exactly one simulation. Determinism also makes reports
// safe to persist forever, so the cache can be layered over a durable
// disk Store (memory → disk → simulate) that lets a restarted server
// answer previously computed sweeps without re-simulating. Server wraps
// the engine in an HTTP API — synchronous sweeps on POST /v1/run,
// asynchronous ones through the bounded Jobs registry (POST /v1/jobs,
// polled and streamed as NDJSON) — whose experiment routes run behind a
// metrics middleware (request counts, error counts, latency histograms
// from internal/metrics) exported on GET /v1/metrics. The wire contract
// — request/response documents, job lifecycle states, and the structured
// error envelope — is the typed pkg/api package (see docs/api.md), and
// pkg/client is the Go SDK over it. cmd/impact-server exposes the engine
// over HTTP, cmd/impact-sweep drives it from spec files through the SDK,
// and cmd/impact-bench load-tests the serving layer.
package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// MaxRuns bounds how many concrete runs one spec may expand into on the
// synchronous path, so a malformed or hostile grid cannot wedge the
// server. The async job path streams runs through a lazy Expansion and
// affords the much larger MaxJobRuns.
const MaxRuns = 4096

// MaxJobRuns bounds lazily expanded (async job) sweeps. Lazy expansion
// never materializes the Cartesian product and results stream into the
// content-addressed store as they complete, so the bound exists only to
// keep one job from monopolizing a server indefinitely.
const MaxJobRuns = 1 << 20

// ErrUnknownScenario tags expansion failures caused by a scenario name
// that is not in the registry (servers map it to 404 rather than 400).
var ErrUnknownScenario = errors.New("exp: unknown scenario")

// ErrGridTooLarge tags specs whose grid expands past the endpoint's run
// bound. The run count is computed with overflow-safe arithmetic, so a
// grid sized to overflow int lands here instead of in a huge or negative
// allocation (servers map it to 400 with code grid_too_large).
var ErrGridTooLarge = errors.New("exp: grid too large")

// Spec is the engine-side form of an experiment sweep. Its wire shape is
// api.RunSpec — the two convert freely — with the expansion machinery
// (Expand, grid resolution, content addressing) layered on top here so
// pkg/api stays a pure contract package.
//
// Grid maps dot-separated config field paths — e.g. "llc_bytes" or
// "mem.defense" — to the list of values to sweep; the engine expands the
// Cartesian product of all grid fields into concrete runs. Each run's
// sim.Config is built in layers by one typed decoder (sim.OverlayJSON):
// the Table 2 defaults, then Config (a sparse JSON object with snake_case
// tags), then each grid value nested under its path, in sorted path order.
// A layer overwrites the fields it names, descends into nested objects
// without touching the section's other fields, and reads null as "change
// nothing". Hence field names match case-insensitively ("Noise.Seed" sets
// noise.seed), duplicate keys in Config merge in document order, and an
// object-valued grid point such as "noise": [{"seed": 5}] keeps Config's
// other noise overrides.
type Spec api.RunSpec

// ParseSpec decodes a spec document, rejecting unknown fields so typos
// ("grids", "senario") fail loudly instead of silently running defaults.
func ParseSpec(data []byte) (Spec, error) {
	s, err := api.ParseRunSpec(data)
	if err != nil {
		return Spec{}, err
	}
	return Spec(s), nil
}

// Run is one concrete, fully resolved experiment: a scenario, a scale,
// and an exact sim.Config. Key is the hex SHA-256 of the run's canonical
// JSON document and is the content address of its report.
type Run struct {
	Scenario string
	Scale    figures.Scale
	Config   sim.Config
	// Params records this run's grid-point assignments (path -> canonical
	// JSON value) for labeling sweep output.
	Params map[string]string
	Key    string

	scn scenario
}

// resolve validates the spec's front matter — scenario, scale, config
// overlay — and returns the base config every grid point layers onto.
func (s Spec) resolve() (scenario, figures.Scale, sim.Config, error) {
	scn, ok := scenarioByName(s.Scenario)
	if !ok {
		return scenario{}, 0, sim.Config{}, fmt.Errorf("%w %q (known: %s)", ErrUnknownScenario, s.Scenario, strings.Join(ScenarioNames(), ", "))
	}
	scale, err := figures.ParseScale(s.Scale)
	if err != nil {
		return scenario{}, 0, sim.Config{}, err
	}
	// Figure-replay scenarios build their own fixed machines; accepting
	// overrides or grids for them would produce runs labeled with
	// parameters that were never applied.
	if !scn.ConfigSensitive && (len(s.Config) > 0 || len(s.Grid) > 0) {
		return scenario{}, 0, sim.Config{}, fmt.Errorf("exp: scenario %q replays a fixed paper artifact and ignores sim.Config; drop the config/grid fields", s.Scenario)
	}

	cfg := sim.DefaultConfig()
	if len(s.Config) > 0 {
		// The typed decoder reads null as "change nothing"; a spec's
		// config must still be an object.
		if doc := bytes.TrimLeft(s.Config, " \t\r\n"); len(doc) == 0 || doc[0] != '{' {
			return scenario{}, 0, sim.Config{}, fmt.Errorf(`exp: spec field "config": want a JSON object, got %s`, s.Config)
		}
		if err := cfg.OverlayJSON(bytes.NewReader(s.Config)); err != nil {
			return scenario{}, 0, sim.Config{}, fmt.Errorf(`exp: spec field "config": %v`, err)
		}
	}
	return scn, scale, cfg, nil
}

// Expand resolves the spec into concrete runs: grid fields are sorted
// lexicographically and the Cartesian product is walked row-major (last
// field fastest), so expansion order — and therefore sweep output — is a
// pure function of the spec. It is Expansion(MaxRuns) materialized.
func (s Spec) Expand() ([]Run, error) {
	x, first, err := s.expansion(MaxRuns)
	if err != nil {
		return nil, err
	}
	runs := make([]Run, 1, x.total)
	runs[0] = first
	for i := 1; i < x.total; i++ {
		run, err := x.RunAt(i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// gridAxis is one grid field of an Expansion, fixed at construction so
// RunAt never re-parses: each value as a sparse config document (the
// value's canonical JSON nested under the path's sections, so
// "mem.defense" = "crp" is {"mem":{"defense":"crp"}}) and its canonical
// JSON label, a substring of that document.
type gridAxis struct {
	path    string
	patches []string
	labels  []string
}

// Expansion is a lazily expanded spec: RunAt(i) materializes run i on
// demand in row-major order (sorted grid paths, last field fastest), so a
// 10^5-run grid never allocates its full Cartesian product. Construction
// validates the front matter and every grid value's JSON, and probes the
// first grid point, so a grid whose paths misname config fields — which
// fails identically at every point — fails at submit time rather than at
// run time.
//
// An Expansion is immutable after construction and safe for concurrent
// RunAt calls: each call layers its grid point onto its own copy of the
// base config.
type Expansion struct {
	scn   scenario
	scale figures.Scale
	base  sim.Config
	axes  []gridAxis
	total int
}

// Expansion resolves the spec into a lazy run iterator bounded by limit
// (MaxRuns for the synchronous path, MaxJobRuns for jobs).
func (s Spec) Expansion(limit int) (*Expansion, error) {
	x, _, err := s.expansion(limit)
	return x, err
}

// expansion builds the Expansion and returns the run its probe derived,
// so Expand does not derive run 0 twice.
func (s Spec) expansion(limit int) (*Expansion, Run, error) {
	scn, scale, base, err := s.resolve()
	if err != nil {
		return nil, Run{}, err
	}

	// Sort the grid fields before validating them, so which error a bad
	// spec gets back is as deterministic as the expansion itself.
	paths := make([]string, 0, len(s.Grid))
	for path := range s.Grid {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	total := 1
	axes := make([]gridAxis, 0, len(paths))
	for _, path := range paths {
		raws := s.Grid[path]
		if len(raws) == 0 {
			return nil, Run{}, fmt.Errorf(`exp: grid field %q has no values`, path)
		}
		// Guard the product before multiplying: total*len(raws) could
		// overflow int on an adversarial grid, and the quotient form
		// cannot (len(raws) >= 1, so the division is always defined).
		if total > limit/len(raws) {
			return nil, Run{}, fmt.Errorf("%w: grid expands to more than %d runs", ErrGridTooLarge, limit)
		}
		total *= len(raws)
		open, closing := patchFrame(path)
		ax := gridAxis{path: path, patches: make([]string, len(raws)), labels: make([]string, len(raws))}
		for i, raw := range raws {
			canon, err := canonicalJSON(raw)
			if err != nil {
				return nil, Run{}, fmt.Errorf("exp: grid field %q: %v", path, err)
			}
			patch := open + string(canon) + closing
			ax.patches[i] = patch
			ax.labels[i] = patch[len(open) : len(patch)-len(closing)]
		}
		axes = append(axes, ax)
	}

	x := &Expansion{scn: scn, scale: scale, base: base, axes: axes, total: total}
	first, err := x.RunAt(0)
	if err != nil {
		return nil, Run{}, err
	}
	return x, first, nil
}

// patchFrame returns the text a grid value is wrapped in to become a
// sparse config document: `{"mem":{"defense":` and `}}` for "mem.defense".
func patchFrame(path string) (open, closing string) {
	var b strings.Builder
	segs := strings.Split(path, ".")
	for _, seg := range segs {
		key, _ := json.Marshal(seg) // a string always encodes
		b.WriteByte('{')
		b.Write(key)
		b.WriteByte(':')
	}
	return b.String(), strings.Repeat("}", len(segs))
}

// Total returns the number of runs the spec expands into (always >= 1).
func (x *Expansion) Total() int { return x.total }

// RunAt materializes run i in expansion order: the base config (Table 2
// defaults under the spec's config) with each axis's patch decoded onto it
// in sorted path order, then validated and content-addressed.
func (x *Expansion) RunAt(i int) (Run, error) {
	if i < 0 || i >= x.total {
		return Run{}, fmt.Errorf("exp: run index %d out of range [0,%d)", i, x.total)
	}
	cfg := x.base
	params := make(map[string]string, len(x.axes))
	var err error
	stride := x.total
	for _, ax := range x.axes {
		stride /= len(ax.patches)
		j := (i / stride) % len(ax.patches)
		params[ax.path] = ax.labels[j]
		if err == nil {
			err = cfg.OverlayJSON(strings.NewReader(ax.patches[j]))
		}
	}
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		if len(params) == 0 {
			return Run{}, fmt.Errorf("exp: %w", err)
		}
		return Run{}, fmt.Errorf("exp: grid point %s: %w", FormatParams(params), err)
	}
	return newRun(x.scn, x.scale, cfg, params)
}

// newRun computes a validated run's content address: the hex SHA-256 of
// {"config":…,"scale":…,"scenario":…}, keys in that sorted order. The
// config encodes from the decoded struct, so equivalent spellings of one
// value ("1e3" vs "1000", string vs ordinal enums) collapse to the same
// address.
func newRun(scn scenario, scale figures.Scale, cfg sim.Config, params map[string]string) (Run, error) {
	canonical, err := json.Marshal(struct {
		Config   sim.Config `json:"config"`
		Scale    string     `json:"scale"`
		Scenario string     `json:"scenario"`
	}{cfg, scale.String(), scn.Name})
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

// FormatParams renders a grid point as "a=1 b=2" in sorted path order
// (the shared label form for engine errors and sweep output).
func FormatParams(params map[string]string) string {
	if len(params) == 0 {
		return "(no grid)"
	}
	paths := make([]string, 0, len(params))
	for p := range params {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p + "=" + params[p]
	}
	return strings.Join(parts, " ")
}

// canonicalJSON re-encodes one grid value in its label form: decoded with
// number literals preserved, then marshaled (sorted object keys, the last
// of duplicate keys, standard string escapes). A bare number literal is
// already in that form and is returned as is.
func canonicalJSON(raw []byte) ([]byte, error) {
	if n := len(raw); n > 0 && (raw[0] == '-' || isDigit(raw[0])) && isDigit(raw[n-1]) && json.Valid(raw) {
		return raw, nil
	}
	val, err := decodeValue(raw)
	if err != nil {
		return nil, err
	}
	return json.Marshal(val)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// decodeValue decodes any JSON value with number literals preserved, so a
// grid label re-encodes a number exactly as it was written.
func decodeValue(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}
