package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/pkg/api"
)

// covertProtocol is how the engine runs one covert scenario: the
// protocol entry point and the per-scenario message seed the engine's
// registry assigns it.
type covertProtocol struct {
	fn      func(*sim.Machine, []bool, core.Options) (core.Result, error)
	msgSeed uint64
}

var covertProtocols = map[string]covertProtocol{
	"covert-pnm":            {core.RunPnM, 101},
	"covert-pum":            {core.RunPuM, 102},
	"covert-direct":         {core.RunDirect, 103},
	"covert-drama-clflush":  {core.RunDRAMAClflush, 104},
	"covert-drama-eviction": {core.RunDRAMAEviction, 105},
	"covert-dma":            {core.RunDMA, 106},
}

// expectedReport renders a covert result the way the served report
// documents it.
func expectedReport(name string, res core.Result) figures.Report {
	return figures.Report{
		ID:    name,
		Title: fmt.Sprintf("%s covert channel (%d bits)", res.Channel, res.Bits),
		Rows: []figures.Row{
			{Label: "throughput", Paper: "-", Measured: fmt.Sprintf("%.2f Mb/s", res.ThroughputMbps)},
			{Label: "effective throughput", Paper: "-", Measured: fmt.Sprintf("%.2f Mb/s", res.EffectiveThroughputMbps)},
			{Label: "error rate", Paper: "-", Measured: fmt.Sprintf("%.2f%%", res.ErrorRate*100)},
			{Label: "transmission time", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.Cycles)},
			{Label: "sender busy", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.SenderCycles)},
			{Label: "receiver busy", Paper: "-", Measured: fmt.Sprintf("%d cyc", res.ReceiverCycles)},
		},
	}
}

// expandRuns resolves a generated spec into its concrete runs exactly as
// the server does.
func expandRuns(rq request) ([]exp.Run, error) {
	spec, err := exp.ParseSpec(rq.Body)
	if err != nil {
		return nil, err
	}
	x, err := spec.Expansion(exp.MaxRuns)
	if err != nil {
		return nil, err
	}
	runs := make([]exp.Run, x.Total())
	for i := range runs {
		if runs[i], err = x.RunAt(i); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// simulate runs one covert run on m and returns the protocol result.
func simulate(run exp.Run, m *sim.Machine) (core.Result, error) {
	p, ok := covertProtocols[run.Scenario]
	if !ok {
		return core.Result{}, fmt.Errorf("scenario %q is not a covert channel", run.Scenario)
	}
	return p.fn(m, core.RandomMessage(run.Scale.Bits(), p.msgSeed), core.Options{})
}

// checkAgainstOracle re-simulates every run of a served covert response on
// a freshly built machine (no pool, no cache, no server) and compares the
// run keys and report bytes with what the server returned.
func checkAgainstOracle(rq request, body []byte) error {
	var res api.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	runs, err := expandRuns(rq)
	if err != nil {
		return err
	}
	if len(res.Runs) != len(runs) {
		return fmt.Errorf("response has %d runs, spec expands to %d", len(res.Runs), len(runs))
	}
	for i, run := range runs {
		got := res.Runs[i]
		if got.Key != run.Key || got.Scenario != run.Scenario {
			return fmt.Errorf("run %d: served key %s (%s), want %s (%s)", i, got.Key, got.Scenario, run.Key, run.Scenario)
		}
		m, err := sim.New(run.Config)
		if err != nil {
			return fmt.Errorf("run %d: building machine: %v", i, err)
		}
		r, err := simulate(run, m)
		if err != nil {
			return fmt.Errorf("run %d: %v", i, err)
		}
		want := rawJSON(expectedReport(run.Scenario, r))
		if !bytes.Equal(got.Report, want) {
			return fmt.Errorf("run %d (%s): served report %s, re-simulation gives %s", i, run.Key, got.Report, want)
		}
	}
	return nil
}

// componentCounts are the simulator's deterministic work counters after
// one run.
type componentCounts struct {
	PEIMemorySide, PEIHostSide, RowCloneOps int64
	RowHit, RowEmpty, RowConflict           int64
	MemRequests, LLCHit, LLCMiss            int64
	SimCycles                               int64
}

func (c *componentCounts) add(o componentCounts) {
	c.PEIMemorySide += o.PEIMemorySide
	c.PEIHostSide += o.PEIHostSide
	c.RowCloneOps += o.RowCloneOps
	c.RowHit += o.RowHit
	c.RowEmpty += o.RowEmpty
	c.RowConflict += o.RowConflict
	c.MemRequests += o.MemRequests
	c.LLCHit += o.LLCHit
	c.LLCMiss += o.LLCMiss
	c.SimCycles += o.SimCycles
}

func countsOf(m *sim.Machine, res core.Result) componentCounts {
	pei, rc, dev := m.PEI().Counters(), m.RowClone().Counters(), m.Device().Counters()
	llc := m.LLC().Counters()
	return componentCounts{
		PEIMemorySide: pei.Get("memory_side"),
		PEIHostSide:   pei.Get("host_side"),
		RowCloneOps:   rc.Get("ops"),
		RowHit:        dev.Get("hit"),
		RowEmpty:      dev.Get("empty"),
		RowConflict:   dev.Get("conflict"),
		MemRequests:   m.Controller().Counters().Get("requests"),
		LLCHit:        llc.Get("hit"),
		LLCMiss:       llc.Get("miss"),
		SimCycles:     res.Cycles,
	}
}

// coreSample is one timed re-run through sim.Pool.Get + core.Run*.
type coreSample struct {
	scenario string
	acquire  time.Duration // sim.Pool.Get
	sim      time.Duration // core.Run*
	counts   componentCounts
}

// probeCore re-runs each run twice through pool.Get + the protocol: the
// first pass warms the pool, the second is timed, and the two must agree
// on every component count and on the result.
func probeCore(pool *sim.Pool, runs []exp.Run) ([]coreSample, error) {
	first := make([]componentCounts, len(runs))
	var out []coreSample
	for rep := 0; rep < 2; rep++ {
		for i, run := range runs {
			t0 := time.Now()
			m, err := pool.Get(run.Config)
			acquire := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("acquiring machine for %s: %v", run.Key, err)
			}
			t1 := time.Now()
			res, err := simulate(run, m)
			d := time.Since(t1)
			if err != nil {
				return nil, fmt.Errorf("re-running %s: %v", run.Key, err)
			}
			c := countsOf(m, res)
			pool.Put(m)
			if rep == 0 {
				first[i] = c
				continue
			}
			if c != first[i] {
				return nil, fmt.Errorf("component counts of %s (%s) differ between runs: %+v vs %+v", run.Key, run.Scenario, first[i], c)
			}
			out = append(out, coreSample{scenario: run.Scenario, acquire: acquire, sim: d, counts: c})
		}
	}
	return out, nil
}
