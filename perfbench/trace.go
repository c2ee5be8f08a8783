package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/pkg/api"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the span that
// caused this one (-1 for a root). Spans of one request share ReqID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ReqID  string `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// only from the benchmark's own wrappers around calls into each layer, so
// the program under test is unchanged.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	latest map[string]int // name + "\x00" + request ID -> newest such span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), latest: make(map[string]int)}
}

// begin opens a span for reqID, parented to that request's newest
// parentName span when there is one, and returns its index for end.
func (t *tracer) begin(name, reqID, parentName string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if parentName != "" {
		if p, ok := t.latest[parentName+"\x00"+reqID]; ok {
			parent = p
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ReqID: reqID})
	i := len(t.spans) - 1
	if reqID != "" {
		t.latest[name+"\x00"+reqID] = i
	}
	return i
}

func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// wrapHandler times the whole exp.Server handler as a "server" span under
// the client's "http" span for the same X-Request-ID.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := t.begin("server", r.Header.Get(api.HeaderRequestID), "http")
		h.ServeHTTP(w, r)
		t.end(i)
	})
}

// timedStore is the exp.ResultStore handed to exp.WithStore in traced
// runs: every Get and Put on the pack store becomes a span under the
// request's "server" span.
type timedStore struct {
	inner exp.ResultStore
	tr    *tracer
}

func (s *timedStore) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	i := s.tr.begin("pack.get", api.RequestID(ctx), "server")
	blob, ok := s.inner.Get(ctx, key)
	s.tr.end(i)
	return blob, ok
}

func (s *timedStore) Put(ctx context.Context, key string, blob json.RawMessage) {
	i := s.tr.begin("pack.put", api.RequestID(ctx), "server")
	s.inner.Put(ctx, key, blob)
	s.tr.end(i)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsUS returns the duration of every span accepted by keep and
// named one of names, in microseconds.
func durationsUS(spans []span, keep func(span) bool, names ...string) []float64 {
	var out []float64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n && keep(s) {
				out = append(out, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

// selfTimesUS returns, for every span accepted by keep and named name,
// its duration minus the part of its interval covered by its children, in
// microseconds.
func selfTimesUS(spans []span, keep func(span) bool, name string) []float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == name {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name != name || !keep(s) {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s.Start, s.End, children[i]))/1e3)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
