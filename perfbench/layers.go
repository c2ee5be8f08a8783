package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/pack"
	"repro/internal/figures"
	"repro/internal/sim"
)

// Probe sizes for the traced run.
const (
	specProbeMax    = 256  // distinct specs parsed and keyed
	coreProbeEach   = 8    // re-simulated runs per covert scenario
	minLayerSamples = 1000 // cache and peer-fetch probes repeat up to this
)

// tracedFigures are the artifacts whose generator time is reported.
var tracedFigures = []string{"fig2", "fig3", "fig9", "fig11", "fig12"}

// specBody is the spec document of a request; figure GETs carry their
// spec in the path, so theirs is rendered here.
func specBody(rq request) []byte {
	if rq.Body != nil {
		return rq.Body
	}
	return rawJSON(rq.Spec)
}

// distinctSpecs returns the pass's distinct requests in first-seen order.
func distinctSpecs(reqs []request) []request {
	seen := make(map[string]bool)
	var out []request
	for _, rq := range reqs {
		k := string(specBody(rq))
		if !seen[k] {
			seen[k] = true
			out = append(out, rq)
		}
	}
	return out
}

// layerMetrics computes every per-layer metric of a traced run: span
// statistics of the traced passes, plus probes that time the layers'
// public functions directly on the same generated inputs. The last pass's
// server must still be open (the cache probe reads its cache).
func (b *bench) layerMetrics(passes []passStats) (map[string]metric, error) {
	spans := b.tr.snapshot()
	inPass := func(s span) bool { return strings.HasPrefix(s.ReqID, "p") }
	all := func(span) bool { return true }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// http, server, encode: the traced timed passes.
	var bytesTotal, replies int64
	var encodes []float64
	var pool sim.PoolStats
	var opens []float64
	var writes, tracedPasses int64
	var tracedWalls, plainWalls []float64
	var tracedRuns, plainRuns int64
	var tracedTime, plainTime time.Duration
	for _, ps := range passes {
		runs := int64(0)
		for i := range ps.out.errs {
			if ps.out.errs[i] == nil {
				runs += int64(b.in.Pass[i].Runs)
			}
		}
		if !ps.traced {
			plainWalls = append(plainWalls, ps.out.wall.Seconds())
			plainRuns += runs
			plainTime += ps.out.wall
			continue
		}
		tracedPasses++
		tracedWalls = append(tracedWalls, ps.out.wall.Seconds())
		tracedRuns += runs
		tracedTime += ps.out.wall
		for i, n := range ps.out.bytes {
			if ps.out.errs[i] == nil {
				bytesTotal += int64(n)
				replies++
				encodes = append(encodes, float64(ps.out.encodes[i].Nanoseconds())/1e3)
			}
		}
		pool.Hits += ps.pool.Hits
		pool.Misses += ps.pool.Misses
		opens = append(opens, float64(ps.openNS)/1e6)
		writes += ps.writes
	}
	handler := median(durationsUS(spans, inPass, "server"))
	put("http.self_us_p50", median(selfTimesUS(spans, inPass, "http")), "us")
	put("server.handler_us_p50", handler, "us")
	put("http.resp_bytes", ratio(bytesTotal, replies), "bytes")
	put("encode.us_per_req", median(encodes), "us")

	// spec: parse and key derivation of the pass's distinct specs.
	parseUS, keyUS, allocs, runsPerSpec, keys, err := probeSpec(distinctSpecs(b.in.Pass))
	if err != nil {
		return nil, err
	}
	put("spec.parse_us", parseUS, "us")
	put("spec.key_us_per_run", keyUS, "us")
	put("spec.allocs_per_run", allocs, "count")
	put("spec.share_pct", 100*(parseUS+runsPerSpec*keyUS)/handler, "%")
	b.keys = keys

	// cache: Cache.Get on the last server, over the probed specs' keys.
	// Its hit ratio is not reported: the X-Cache check pins it to 1 or 0
	// on every workload.
	c := passes[len(passes)-1].node.engine.Cache()
	var gets []float64
	var blobs []json.RawMessage
	for len(gets) < minLayerSamples {
		for _, k := range keys {
			t0 := time.Now()
			blob, ok := c.Get(context.Background(), k)
			gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
			if !ok {
				b.probs.add("cache probe: key %s missed after the pass returned it", k)
			} else if len(blobs) < len(keys) {
				blobs = append(blobs, blob)
			}
		}
	}
	put("cache.get_us_p50", median(gets), "us")

	// pack: the timing store wrapper, over every traced server's life
	// (set-up included; restart-replay's fixture fill is never traced).
	// Only cold-sweep's passes write enough to rewrite the INDEX (every
	// 1024 puts); the other workloads' writes are timed by a probe.
	packGets := durationsUS(spans, all, "pack.get")
	packPuts := durationsUS(spans, all, "pack.put")
	indexWrites := float64(writes) / float64(tracedPasses)
	if b.o.workload != "cold-sweep" {
		var n int64
		if packPuts, n, err = b.probePackPuts(filepath.Join(b.work, "put-probe"), blobs); err != nil {
			return nil, err
		}
		indexWrites = float64(n)
	}
	put("pack.get_us_p50", quantile(packGets, 0.50), "us")
	put("pack.get_us_p99", quantile(packGets, 0.99), "us")
	put("pack.put_us_p50", quantile(packPuts, 0.50), "us")
	put("pack.put_us_p99", quantile(packPuts, 0.99), "us")
	put("pack.index_writes", indexWrites, "count")
	put("pack.open_ms", median(opens), "ms")

	// sim and core: re-run the pass's covert runs through sim.Pool.Get and
	// the protocol, on a pool of the probe's own.
	runs, err := b.coreProbeRuns()
	if err != nil {
		return nil, err
	}
	probePool := sim.NewPool()
	samples, err := probeCore(probePool, runs)
	if err != nil {
		b.probs.add("core probe: %v", err)
	}
	if pool.Hits+pool.Misses == 0 {
		pool = probePool.Stats() // paper-figures' generators build their own machines
	}
	put("sim.pool_hit_ratio", ratio(pool.Hits, pool.Hits+pool.Misses), "ratio")
	var acquires []float64
	perScn := map[string][]float64{}
	var counts componentCounts
	var simNS int64
	for _, s := range samples {
		acquires = append(acquires, float64(s.acquire.Nanoseconds())/1e3)
		perScn[s.scenario] = append(perScn[s.scenario], float64((s.acquire+s.sim).Nanoseconds())/1e6)
		counts.add(s.counts)
		simNS += s.sim.Nanoseconds()
	}
	put("sim.acquire_us_p50", median(acquires), "us")
	for _, scn := range covertScenarios {
		put("core.run_ms."+scn, median(perScn[scn]), "ms")
	}
	put("core.host_ns_per_dram_access", ratio(simNS, counts.RowHit+counts.RowEmpty+counts.RowConflict), "ns")
	put("core.sim_cycles", float64(counts.SimCycles), "count")
	put("pim.pei_memory_side", float64(counts.PEIMemorySide), "count")
	peiHost, peiNS, err := probePEI(probePool, b.o.seed)
	if err != nil {
		b.probs.add("PEI probe: %v", err)
	}
	put("pim.pei_host_side", float64(counts.PEIHostSide+peiHost), "count")
	put("pim.pei_ns_per_op", peiNS, "ns")
	put("pim.rowclone_ops", float64(counts.RowCloneOps), "count")
	put("dram.row_hit", float64(counts.RowHit), "count")
	put("dram.row_empty", float64(counts.RowEmpty), "count")
	put("dram.row_conflict", float64(counts.RowConflict), "count")
	put("memctrl.requests", float64(counts.MemRequests), "count")
	put("llc.hit", float64(counts.LLCHit), "count")
	put("llc.miss", float64(counts.LLCMiss), "count")

	// figures: handler spans when the workload serves them, else one
	// direct generator call each.
	for id, v := range b.figureTimes(spans) {
		put("figures.ms."+id, v, "ms")
	}

	// Tracing overhead: the same passes with and without spans.
	put("trace.untraced_runs_per_s", float64(plainRuns)/plainTime.Seconds(), "1/s")
	put("trace.traced_runs_per_s", float64(tracedRuns)/tracedTime.Seconds(), "1/s")
	put("trace.untraced_suite_s", median(plainWalls), "s")
	put("trace.traced_suite_s", median(tracedWalls), "s")
	put("trace.overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1), "%")
	return m, nil
}

// probeSpec times exp.ParseSpec and key derivation (Expansion + RunAt)
// on each distinct spec, and counts key-derivation allocations per run.
func probeSpec(reqs []request) (parseUS, keyUS, allocsPerRun, runsPerSpec float64, keys []string, err error) {
	if len(reqs) > specProbeMax {
		reqs = reqs[:specProbeMax]
	}
	specs := make([]exp.Spec, len(reqs))
	var parses, perRun []float64
	for i, rq := range reqs {
		body := specBody(rq)
		t0 := time.Now()
		specs[i], err = exp.ParseSpec(body)
		parses = append(parses, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, 0, 0, nil, fmt.Errorf("spec probe: %v", err)
		}
	}
	totalRuns := 0
	for _, spec := range specs {
		t0 := time.Now()
		x, err := spec.Expansion(exp.MaxRuns)
		if err != nil {
			return 0, 0, 0, 0, nil, fmt.Errorf("spec probe: %v", err)
		}
		for j := 0; j < x.Total(); j++ {
			run, err := x.RunAt(j)
			if err != nil {
				return 0, 0, 0, 0, nil, fmt.Errorf("spec probe: %v", err)
			}
			keys = append(keys, run.Key)
		}
		perRun = append(perRun, float64(time.Since(t0).Nanoseconds())/1e3/float64(x.Total()))
		totalRuns += x.Total()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range specs {
		x, _ := spec.Expansion(exp.MaxRuns)
		for j := 0; j < x.Total(); j++ {
			x.RunAt(j)
		}
	}
	runtime.ReadMemStats(&after)
	allocsPerRun = float64(after.Mallocs-before.Mallocs) / float64(totalRuns)
	return median(parses), median(perRun), allocsPerRun, float64(totalRuns) / float64(len(specs)), keys, nil
}

// packProbePuts is how many results the pack write probe stores: two
// INDEX rewrites' worth.
const packProbePuts = 2048

// probePackPuts stores packProbePuts results into a fresh pack store in
// dir through the timing wrapper, cycling over blobs under distinct keys
// derived from the seed, and reads every one back. It returns the puts'
// durations in microseconds and the INDEX rewrites they caused.
func (b *bench) probePackPuts(dir string, blobs []json.RawMessage) ([]float64, int64, error) {
	if len(blobs) == 0 {
		return nil, 0, fmt.Errorf("pack put probe: no result blobs")
	}
	ps, err := pack.Open(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("pack put probe: %w", err)
	}
	tr := newTracer()
	st := &timedStore{inner: ps, tr: tr}
	ctx := context.Background()
	keys := make([]string, packProbePuts)
	for i := range keys {
		sum := sha256.Sum256(fmt.Appendf(nil, "perfbench pack probe %d %d", b.o.seed, i))
		keys[i] = hex.EncodeToString(sum[:])
		st.Put(ctx, keys[i], blobs[i%len(blobs)])
	}
	writes := ps.PackStats().IndexWrites
	for i, k := range keys {
		got, ok := ps.Get(ctx, k)
		if !ok || !bytes.Equal(got, blobs[i%len(blobs)]) {
			b.probs.add("pack put probe: put %d (%s) read back held=%v, differing", i, k, ok)
			break
		}
	}
	if err := ps.Close(); err != nil {
		return nil, 0, fmt.Errorf("pack put probe: %w", err)
	}
	return durationsUS(tr.snapshot(), func(span) bool { return true }, "pack.put"), writes, nil
}

// peiProbeLines is how many cache lines the PEI probe targets: more than
// the locality monitor's 256 tracked lines, so its misses evict.
const peiProbeLines = 4096

// probePEI executes PEIs through core 0 of a default machine, twice in a
// row on each of peiProbeLines seed-chosen lines: the first misses the
// locality monitor and runs near memory, the second hits it and runs
// host-side, the path no covert scenario takes (the attackers touch fresh
// lines to force memory-side execution). The sequence runs twice on
// pooled machines, which must agree on the dispatch counts; the second
// is timed. It returns the host-side PEIs and the host time per PEI.
func probePEI(pool *sim.Pool, seed uint64) (int64, float64, error) {
	cfg := sim.DefaultConfig()
	r := newRNG(seed, tagPEI)
	addrs := make([]uint64, peiProbeLines)
	var first [2]int64
	var nsPerOp float64
	for rep := 0; rep < 2; rep++ {
		m, err := pool.Get(cfg)
		if err != nil {
			return 0, 0, err
		}
		if rep == 0 {
			d := cfg.DRAM
			for i := range addrs {
				addrs[i] = m.AddrFor(r.intn(d.TotalBanks()), int64(r.intn(int(d.RowsPerBank))), 64*r.intn(d.RowBytes/64))
			}
		}
		core := m.Core(0)
		t0 := time.Now()
		for _, a := range addrs {
			for k := 0; k < 2; k++ {
				if _, err := core.PEIAccess(a); err != nil {
					pool.Put(m)
					return 0, 0, err
				}
			}
		}
		elapsed := time.Since(t0)
		pc := m.PEI().Counters()
		got := [2]int64{pc.Get("host_side"), pc.Get("memory_side")}
		pool.Put(m)
		if rep == 0 {
			first = got
			continue
		}
		if got != first {
			return 0, 0, fmt.Errorf("host/memory-side counts differ between runs: %v vs %v", first, got)
		}
		nsPerOp = float64(elapsed.Nanoseconds()) / float64(2*len(addrs))
	}
	return first[0], nsPerOp, nil
}

// coreProbeRuns picks the covert runs the core probe re-simulates: the
// first coreProbeEach runs of each scenario in the pass, or, for
// paper-figures, of a cold-sweep input set from the same seed.
func (b *bench) coreProbeRuns() ([]exp.Run, error) {
	reqs := b.in.Pass
	if b.o.workload == "paper-figures" {
		reqs = coldSpecs(b.o.seed, tagCold, 2)
	}
	taken := map[string]int{}
	var out []exp.Run
	for _, rq := range distinctSpecs(reqs) {
		runs, err := expandRuns(rq)
		if err != nil {
			return nil, err
		}
		for _, run := range runs {
			if taken[run.Scenario] < coreProbeEach {
				taken[run.Scenario]++
				out = append(out, run)
			}
		}
	}
	return out, nil
}

// figureTimes returns the generator time of each traced figure in ms.
func (b *bench) figureTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	if b.o.workload == "paper-figures" {
		per := map[string][]float64{}
		for _, s := range spans {
			if s.Name != "server" || !strings.HasPrefix(s.ReqID, "p") {
				continue
			}
			_, idx, _ := strings.Cut(s.ReqID, "-")
			i, err := strconv.Atoi(idx)
			if err != nil {
				continue
			}
			id := b.in.Pass[i].Spec.Scenario
			per[id] = append(per[id], float64(s.End-s.Start)/1e6)
		}
		for _, id := range tracedFigures {
			out[id] = median(per[id])
		}
		return out
	}
	for _, id := range tracedFigures {
		t0 := time.Now()
		if _, err := figures.Run(id, figures.ScaleQuick); err != nil {
			b.probs.add("figure probe %s: %v", id, err)
		}
		out[id] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return out
}

// clusterProbe opens a second node on the last traced pass's store and
// times client.FetchResult, the peer hop, for the probed specs' keys.
func (b *bench) clusterProbe(last passStats, m map[string]metric) error {
	n, err := openNode(last.dir, nil)
	if err != nil {
		return err
	}
	c, transport, err := newClient(n.base, 1)
	if err != nil {
		n.close()
		return err
	}
	var fetches []float64
	for len(fetches) < minLayerSamples {
		for _, k := range b.keys {
			t0 := time.Now()
			_, ok, err := c.FetchResult(context.Background(), k)
			fetches = append(fetches, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil || !ok {
				b.probs.add("peer fetch of %s: held=%v err=%v", k, ok, err)
			}
		}
	}
	transport.CloseIdleConnections()
	m["cluster.peer_fetch_us_p50"] = metric{quantile(fetches, 0.50), "us"}
	m["cluster.peer_fetch_us_p99"] = metric{quantile(fetches, 0.99), "us"}
	return n.close()
}
