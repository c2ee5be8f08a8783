package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/exp/fsio"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// RunResult is one concrete run's outcome: the api.RunResult wire form
// plus engine-side bookkeeping. Cached is deliberately excluded from the
// JSON form: two identical sweeps must serialize byte-identically whether
// they were simulated or served from cache.
type RunResult struct {
	api.RunResult
	Cached bool `json:"-"`
}

// SweepResult is the outcome of one expanded spec, marshaling exactly as
// api.SweepResult. Runs appear in expansion order. Hits and Misses count
// this invocation's unique-key cache lookups (excluded from JSON for the
// same reason as Cached).
type SweepResult struct {
	SpecKey string      `json:"spec_key"`
	Runs    []RunResult `json:"runs"`
	Hits    int         `json:"-"`
	Misses  int         `json:"-"`
}

// ErrSweepCanceled tags sweeps cut short by context cancellation — a
// DELETE on the owning job, or a synchronous client disconnecting. Runs
// that finished before the cancellation remain cached.
var ErrSweepCanceled = errors.New("exp: sweep canceled")

// Engine expands specs and schedules their runs over a bounded worker
// pool, memoizing every report in a shared content-addressed cache. Safe
// for concurrent use (the HTTP service calls RunSpec from handler
// goroutines). Machines are recycled through a shared sim.Pool, so cold
// runs skip full machine assembly whenever a same-shaped machine has run
// before — across sweeps and requests, not just within one.
type Engine struct {
	cache *Cache
	pool  *sim.Pool
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithStore layers the engine's cache over a durable disk store (either
// backend satisfying ResultStore): lookups fall through memory → disk →
// simulate, and every computed report is written through, so a new
// engine over the same data dir serves previously computed sweeps
// without re-simulating.
func WithStore(st ResultStore) EngineOption {
	return func(e *Engine) { e.cache = NewCacheWithStore(st) }
}

// NewEngine returns an engine with an empty, memory-only cache unless an
// option says otherwise.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{cache: NewCache(), pool: sim.NewPool()}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Cache exposes the engine's result cache (for metrics endpoints).
func (e *Engine) Cache() *Cache { return e.cache }

// PoolStats snapshots the engine's machine-pool counters (for metrics
// endpoints).
func (e *Engine) PoolStats() sim.PoolStats { return e.pool.Stats() }

// RunSpec expands the spec and produces every report, serving repeated
// runs from cache. workers == 0 selects runtime.NumCPU(), negative counts
// are rejected, and the pool is clamped to the number of cache misses.
// The result is a pure function of the spec: run order is expansion order
// and every report is deterministic, so neither the worker count nor the
// cache state can change a single output byte. Canceling ctx stops
// scheduling new runs (in-flight simulations finish and stay cached) and
// fails the sweep with the context's error.
func (e *Engine) RunSpec(ctx context.Context, spec Spec, workers int) (*SweepResult, error) {
	runs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, runs, workers, nil)
}

// execute produces every report for pre-expanded runs. When onRun is
// non-nil it is called once per run index as that run's report becomes
// available — in no particular order, possibly from several worker
// goroutines at once — which is how the async job API streams results
// while a sweep executes. The returned SweepResult is identical whether
// or not onRun is set.
//
// Cancellation is cooperative at run granularity: once ctx is done, no
// further runs are handed to the pool and already-claimed runs are
// skipped, but a simulation that already started runs to completion and
// is cached — cancellation never wastes finished work, and it never
// poisons the singleflight table other requests may be waiting on.
func (e *Engine) execute(ctx context.Context, runs []Run, workers int, onRun func(int, RunResult)) (*SweepResult, error) {
	if workers < 0 {
		return nil, fmt.Errorf("exp: negative worker count %d", workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSweepCanceled, err)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	out := &SweepResult{Runs: make([]RunResult, len(runs))}
	idxByKey := make(map[string][]int, len(runs))
	keyOrder := make([]string, 0, len(runs)) // unique keys, first occurrence first
	runByKey := make(map[string]Run, len(runs))
	for i, r := range runs {
		out.Runs[i] = RunResult{
			RunResult: api.RunResult{
				Key:      r.Key,
				Scenario: r.Scenario,
				Scale:    r.Scale.String(),
				Params:   r.Params,
			},
		}
		if _, seen := idxByKey[r.Key]; !seen {
			keyOrder = append(keyOrder, r.Key)
			runByKey[r.Key] = r
		}
		idxByKey[r.Key] = append(idxByKey[r.Key], i)
	}

	// resolve publishes one unique key's report to every run index that
	// shares it. Distinct keys own distinct index sets, so concurrent
	// workers never write the same element.
	resolve := func(key string, blob json.RawMessage, cached bool) {
		for _, i := range idxByKey[key] {
			out.Runs[i].Report = blob
			out.Runs[i].Cached = cached
			if onRun != nil {
				onRun(i, out.Runs[i])
			}
		}
	}

	// Lookup phase: one cache probe per unique key, so overlapping grid
	// points inside one sweep are simulated at most once.
	var misses []Run
	for _, key := range keyOrder {
		if blob, ok := e.cache.Get(ctx, key); ok {
			resolve(key, blob, true)
			out.Hits++
		} else {
			misses = append(misses, runByKey[key])
			out.Misses++
		}
	}

	// Execute phase: shard the misses over the pool; results land at
	// fixed indices, so scheduling order cannot reorder anything. Each run
	// goes through Cache.Compute, which coalesces identical in-flight runs
	// across concurrent requests onto one simulation and caches every run
	// that completes — so a corrected retry (or an overlapping sweep) never
	// re-simulates the points that already succeeded.
	if len(misses) > 0 {
		if workers > len(misses) {
			workers = len(misses)
		}
		errs := make([]error, len(misses))
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					// A run claimed just before cancellation is skipped here
					// rather than simulated; the cancellation check below
					// reports the sweep canceled either way.
					if ctx.Err() != nil {
						continue
					}
					r := misses[i]
					var blob json.RawMessage
					blob, errs[i] = e.cache.Compute(ctx, r.Key, func() (json.RawMessage, error) {
						return e.executeRun(r)
					})
					if errs[i] == nil {
						resolve(r.Key, blob, false)
					}
				}
			}()
		}
	feed:
		for i := range misses {
			select {
			case work <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(work)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSweepCanceled, err)
		}
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("exp: scenario %s (%s): %w",
					misses[i].Scenario, FormatParams(misses[i].Params), err)
			}
		}
	}

	specSum := sha256.New()
	for _, r := range runs {
		specSum.Write([]byte(r.Key))
	}
	out.SpecKey = hex.EncodeToString(specSum.Sum(nil))
	return out, nil
}

// executeStream produces every report of a lazily expanded sweep without
// ever materializing the run list or the result set: a feeder goroutine
// generates runs in expansion order (hashing the spec key incrementally as
// it goes), workers probe the cache and simulate misses, and each result
// is handed to onRun as it completes — then dropped, so resident memory is
// bounded by the worker count no matter how many runs the sweep has. The
// returned SweepResult carries only aggregates (SpecKey, Hits, Misses);
// Runs is nil by design.
//
// Two accounting differences from execute are deliberate: Hits/Misses
// count per run (not per unique key), so a sweep whose grid points
// collapse to one key reports later occurrences as hits; and when several
// runs fail, the error reported is the failing run with the lowest index
// (execute reports the lowest-index miss), keeping the reported error
// deterministic under any worker interleaving. Cancellation semantics are
// identical to execute.
func (e *Engine) executeStream(ctx context.Context, x *Expansion, workers int, onRun func(int, RunResult)) (*SweepResult, error) {
	if workers < 0 {
		return nil, fmt.Errorf("exp: negative worker count %d", workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSweepCanceled, err)
	}
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	total := x.Total()
	if workers > total {
		workers = total
	}

	var (
		mu       sync.Mutex
		hits     int
		misses   int
		firstErr error
		errIdx   = total // lowest failing index seen so far
	)
	recordErr := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}

	type item struct {
		i int
		r Run
	}
	work := make(chan item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				if ctx.Err() != nil {
					continue
				}
				rr := RunResult{
					RunResult: api.RunResult{
						Key:      it.r.Key,
						Scenario: it.r.Scenario,
						Scale:    it.r.Scale.String(),
						Params:   it.r.Params,
					},
				}
				if blob, ok := e.cache.Get(ctx, it.r.Key); ok {
					rr.Report, rr.Cached = blob, true
					mu.Lock()
					hits++
					mu.Unlock()
				} else {
					blob, err := e.cache.Compute(ctx, it.r.Key, func() (json.RawMessage, error) {
						return e.executeRun(it.r)
					})
					if err != nil {
						recordErr(it.i, fmt.Errorf("exp: scenario %s (%s): %w",
							it.r.Scenario, FormatParams(it.r.Params), err))
						continue
					}
					rr.Report = blob
					mu.Lock()
					misses++
					mu.Unlock()
				}
				if onRun != nil {
					onRun(it.i, rr)
				}
			}
		}()
	}

	// The feeder materializes runs one at a time in expansion order; the
	// spec key is the same hash over the same key sequence execute uses,
	// accumulated incrementally instead of over a stored slice.
	specSum := sha256.New()
feed:
	for i := 0; i < total; i++ {
		r, err := x.RunAt(i)
		if err != nil {
			// RunAt(0) was probed at construction, so a failure here is a
			// later grid point the probe could not cover.
			recordErr(i, err)
			break
		}
		specSum.Write([]byte(r.Key))
		select {
		case work <- item{i: i, r: r}:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSweepCanceled, err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &SweepResult{
		SpecKey: hex.EncodeToString(specSum.Sum(nil)),
		Hits:    hits,
		Misses:  misses,
	}, nil
}

// executeRun simulates one concrete run and marshals its report. A panic
// inside the simulator is confined here: it becomes this run's error (and
// so a failed sweep), never a dead worker goroutine or a crashed process
// taking every other job down with it. (The machine pool tolerates this:
// a machine released mid-run is fully reinitialized before reuse.)
func (e *Engine) executeRun(r Run) (blob json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if err := fsio.Failpoint("engine.run"); err != nil {
		return nil, err
	}
	rep, err := r.scn.run(e.pool, r.Config, r.Scale)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// DecodeReport unmarshals cached report bytes back into a figures.Report
// (for text rendering in cmd/impact-sweep).
func DecodeReport(blob json.RawMessage) (figures.Report, error) {
	var rep figures.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return figures.Report{}, fmt.Errorf("exp: corrupt cached report: %v", err)
	}
	return rep, nil
}
