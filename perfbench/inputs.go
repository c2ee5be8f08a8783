package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/figures"
	"repro/pkg/api"
)

// covertScenarios are the six config-sensitive scenarios every covert
// workload draws from, in registry order.
var covertScenarios = []string{
	"covert-pnm", "covert-pum", "covert-direct",
	"covert-drama-clflush", "covert-drama-eviction", "covert-dma",
}

// Input-set sizes. Each covert pass holds the same number of requests per
// scenario, so the cost of a pass depends on the seed only through noise
// seeds and order, never through the scenario mix.
const (
	coldPerScenario   = 167 // 1002 two-run requests per cold-sweep pass
	replayPerScenario = 167 // 1002 stored two-run specs for restart-replay
	gridsPerScenario  = 2   // 12 primed 4x4 grids for warm-grid
	warmRequests      = 1008
)

var (
	coldLLC = []int{4 << 20, 8 << 20}
	gridLLC = []int{2 << 20, 4 << 20, 8 << 20, 16 << 20}
)

// Stream tags keep the workloads' generators independent: the same seed
// yields unrelated noise seeds in every workload.
const (
	tagCold uint64 = iota + 1
	tagWarm
	tagReplay
	tagPEI
)

// request is one generated client call. Spec requests go to POST /v1/run
// with Body as the document; figure requests are GETs of Path.
type request struct {
	Method string
	Path   string
	Body   []byte
	Spec   api.RunSpec
	Runs   int // runs the response must carry
}

// rng is splitmix64: small, seedable and identical on every platform.
type rng struct{ s uint64 }

func newRNG(seed, tag uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ tag<<56 ^ tag} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// noiseSeed returns a fresh seed that survives a float64 round trip, so
// no JSON decoder on either side can merge two distinct seeds.
func (r *rng) noiseSeed() uint64 { return r.next() & (1<<52 - 1) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// balancedScenarios returns perScenario copies of every covert scenario in
// a seed-shuffled order.
func balancedScenarios(r *rng, perScenario int) []string {
	out := make([]string, 0, perScenario*len(covertScenarios))
	for i := 0; i < perScenario; i++ {
		out = append(out, covertScenarios...)
	}
	shuffle(r, out)
	return out
}

// specRequest renders a POST /v1/run request for one spec.
func specRequest(spec api.RunSpec, runs int) request {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling generated spec: %v", err)) // generated specs always marshal
	}
	return request{Method: http.MethodPost, Path: "/v1/run", Body: body, Spec: spec, Runs: runs}
}

func rawJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling generated value: %v", err)) // plain values always marshal
	}
	return b
}

// noiseConfig is the config overlay that pins a run's noise stream.
func noiseConfig(seed uint64) json.RawMessage {
	return rawJSON(map[string]any{"noise": map[string]any{"seed": seed}})
}

// coldSpecs generates perScenario*6 quick-scale covert specs, each with a
// unique noise seed and a 2-point llc_bytes grid, so every run is a
// distinct content address.
func coldSpecs(seed, tag uint64, perScenario int) []request {
	r := newRNG(seed, tag)
	llc := make([]json.RawMessage, len(coldLLC))
	for i, v := range coldLLC {
		llc[i] = rawJSON(v)
	}
	scns := balancedScenarios(r, perScenario)
	out := make([]request, len(scns))
	for i, scn := range scns {
		out[i] = specRequest(api.RunSpec{
			Scenario: scn,
			Scale:    "quick",
			Config:   noiseConfig(r.noiseSeed()),
			Grid:     map[string][]json.RawMessage{"llc_bytes": llc},
		}, len(coldLLC))
	}
	return out
}

// warmGrids generates the warm-grid workload's fixed grid set: for every
// covert scenario, gridsPerScenario 4x4 grids over llc_bytes and four
// seed-derived noise seeds.
func warmGrids(seed uint64) []request {
	r := newRNG(seed, tagWarm)
	llc := make([]json.RawMessage, len(gridLLC))
	for i, v := range gridLLC {
		llc[i] = rawJSON(v)
	}
	var out []request
	for _, scn := range covertScenarios {
		for g := 0; g < gridsPerScenario; g++ {
			seeds := make([]json.RawMessage, 4)
			for i := range seeds {
				seeds[i] = rawJSON(r.noiseSeed())
			}
			out = append(out, specRequest(api.RunSpec{
				Scenario: scn,
				Scale:    "quick",
				Grid:     map[string][]json.RawMessage{"llc_bytes": llc, "noise.seed": seeds},
			}, len(llc)*len(seeds)))
		}
	}
	return out
}

// workloadInputs is everything one workload sends, in request-index
// order: Fill once before the first pass (fixture work), Prime in every
// pass's set-up, and Pass timed.
type workloadInputs struct {
	Fill  []request
	Prime []request
	Pass  []request
}

// genInputs derives a workload's inputs from its seed alone.
func genInputs(workload string, seed uint64) (workloadInputs, error) {
	switch workload {
	case "cold-sweep":
		return workloadInputs{Pass: coldSpecs(seed, tagCold, coldPerScenario)}, nil
	case "warm-grid":
		grids := warmGrids(seed)
		r := newRNG(seed, tagWarm+100)
		pass := make([]request, warmRequests)
		for i := range pass {
			pass[i] = grids[i%len(grids)]
		}
		shuffle(r, pass)
		return workloadInputs{Prime: grids, Pass: pass}, nil
	case "restart-replay":
		fill := coldSpecs(seed, tagReplay, replayPerScenario)
		pass := append([]request(nil), fill...)
		shuffle(newRNG(seed, tagReplay+100), pass)
		return workloadInputs{Fill: fill, Pass: pass}, nil
	case "paper-figures":
		// The artifacts are fixed by the paper: the seed has nothing to
		// vary, so every seed sends the same 14 requests in paper order.
		var pass []request
		for _, id := range figures.IDs() {
			pass = append(pass, request{Method: http.MethodGet, Path: "/v1/figures/" + id + "?scale=quick", Spec: api.RunSpec{Scenario: id, Scale: "quick"}, Runs: 1})
		}
		return workloadInputs{Pass: pass}, nil
	}
	return workloadInputs{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

var workloadNames = []string{"cold-sweep", "warm-grid", "restart-replay", "paper-figures"}
