package exp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doRequest(t *testing.T, h http.Handler, method, path string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServerRunCacheHit is the acceptance-criteria test: POSTing the same
// spec twice returns byte-identical bodies, with the second response a
// recorded cache hit.
func TestServerRunCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating sweeps in -short mode")
	}
	h := NewServer(NewEngine(), WithWorkers(2)).Handler()
	spec := `{
		"scenario": "covert-pum",
		"grid": {"llc_bytes": [4194304, 8388608], "mem.defense": ["none", "ctd"]}
	}`

	first := doRequest(t, h, http.MethodPost, "/v1/run", spec)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST X-Cache = %q, want miss", got)
	}

	second := doRequest(t, h, http.MethodPost, "/v1/run", spec)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST X-Cache = %q, want hit", got)
	}
	if got := second.Header().Get("X-Cache-Hits"); got != "4" {
		t.Fatalf("second POST X-Cache-Hits = %q, want 4", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached response is not byte-identical to the cold response")
	}

	var res struct {
		SpecKey string `json:"spec_key"`
		Runs    []struct {
			Key    string          `json:"key"`
			Report json.RawMessage `json:"report"`
			Cached *bool           `json:"cached"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 || res.SpecKey == "" {
		t.Fatalf("response shape: %d runs, spec_key %q", len(res.Runs), res.SpecKey)
	}
	for _, r := range res.Runs {
		if r.Cached != nil {
			t.Fatal("cache state leaked into the response body; bodies could never be byte-identical")
		}
		if len(r.Report) == 0 || r.Key == "" {
			t.Fatal("run missing report or key")
		}
	}

	// The health endpoint exposes the hit/miss counters.
	health := doRequest(t, h, http.MethodGet, "/healthz", "")
	if health.Code != http.StatusOK {
		t.Fatalf("healthz = %d", health.Code)
	}
	var hres struct {
		Status string           `json:"status"`
		Cache  map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal(health.Body.Bytes(), &hres); err != nil {
		t.Fatal(err)
	}
	if hres.Status != "ok" || hres.Cache["entries"] != 4 || hres.Cache["hits"] != 4 || hres.Cache["misses"] != 4 {
		t.Fatalf("healthz counters: %+v", hres)
	}
}

// TestServerFigureEndpoint serves a single registry artifact, cached on
// the second fetch.
func TestServerFigureEndpoint(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()

	first := doRequest(t, h, http.MethodGet, "/v1/figures/rowbuffer", "")
	if first.Code != http.StatusOK {
		t.Fatalf("GET figure = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first fetch X-Cache = %q", got)
	}
	// Figure bodies honor the API-wide contract: JSON terminated by a
	// newline, like every other response.
	if body := first.Body.Bytes(); len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatal("figure body missing the trailing newline")
	}
	var rep struct {
		ID   string `json:"id"`
		Rows []any  `json:"rows"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "§3.1" || len(rep.Rows) == 0 {
		t.Fatalf("unexpected report: %s", first.Body)
	}

	second := doRequest(t, h, http.MethodGet, "/v1/figures/rowbuffer", "")
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second fetch X-Cache = %q", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("figure responses differ")
	}

	// Scale is part of the identity: a full-scale fetch is a fresh run.
	full := doRequest(t, h, http.MethodGet, "/v1/figures/rowbuffer?scale=full", "")
	if got := full.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("full-scale fetch X-Cache = %q", got)
	}

	if rec := doRequest(t, h, http.MethodGet, "/v1/figures/fig99", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown figure = %d, want 404", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodGet, "/v1/figures/rowbuffer?scale=huge", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad scale = %d, want 400", rec.Code)
	}
}

// TestServerScenarios lists the registry.
func TestServerScenarios(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	rec := doRequest(t, h, http.MethodGet, "/v1/scenarios", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("scenarios = %d", rec.Code)
	}
	var res struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != len(ScenarioNames()) {
		t.Fatalf("listed %d scenarios, want %d", len(res.Scenarios), len(ScenarioNames()))
	}
	byName := map[string]ScenarioInfo{}
	for _, s := range res.Scenarios {
		byName[s.Name] = s
	}
	if !byName["covert-pnm"].ConfigSensitive {
		t.Fatal("covert-pnm not marked config-sensitive")
	}
	if byName["fig9"].ConfigSensitive {
		t.Fatal("figure replay marked config-sensitive")
	}
}

// TestServerErrors checks the HTTP error contract.
func TestServerErrors(t *testing.T) {
	h := NewServer(NewEngine(), WithWorkers(1)).Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
		mention                  string
	}{
		{"malformed JSON", http.MethodPost, "/v1/run", `{"scenario": `, http.StatusBadRequest, "spec"},
		{"unknown spec field", http.MethodPost, "/v1/run", `{"scenario": "rowbuffer", "grids": {}}`, http.StatusBadRequest, "grids"},
		{"unknown scenario", http.MethodPost, "/v1/run", `{"scenario": "covert-warp"}`, http.StatusNotFound, "covert-warp"},
		{"invalid config", http.MethodPost, "/v1/run", `{"scenario": "covert-pnm", "config": {"cores": 0}}`, http.StatusBadRequest, "cores"},
		{"cores beyond sharer mask", http.MethodPost, "/v1/run", `{"scenario": "covert-pnm", "config": {"cores": 100000}}`, http.StatusBadRequest, `\"cores\": must be \u003c= 16`},
		{"config on figure replay", http.MethodPost, "/v1/run", `{"scenario": "rowbuffer", "config": {"cores": 2}}`, http.StatusBadRequest, "ignores sim.Config"},
		{"wrong method", http.MethodGet, "/v1/run", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doRequest(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if tc.mention != "" && !strings.Contains(rec.Body.String(), tc.mention) {
				t.Fatalf("error body %q does not mention %q", rec.Body, tc.mention)
			}
		})
	}

	// Oversized specs are rejected without reading the whole body.
	huge := `{"scenario": "rowbuffer", "config": {` + strings.Repeat(" ", maxSpecBytes) + `}}`
	rec := doRequest(t, h, http.MethodPost, "/v1/run", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", rec.Code)
	}
}
