// Command perfbench is the repository benchmark: seeded, closed-loop
// workloads against an in-process exp.Server on a loopback listener,
// driven through pkg/client, with every response checked.
//
//	perfbench --workload cold-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one workload; with
// --trace 1 it replays the same inputs with spans recorded around the
// calls into each layer and prints the per-layer metrics instead. The
// last line of standard output is the result document; the line before
// it carries sample counts, check results and the host stamp. See
// README.md for the workloads, the metrics and why each was chosen.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/pkg/client"
)

// defaultSeed is the seed the golden table was recorded at, beside one
// held-out seed (see golden.go).
const defaultSeed = 1

// maxMeasure caps measuring time so a run always ends well inside the
// three-minute budget, even on a host far slower than the one the
// benchmark was sized on.
const maxMeasure = 100 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string
	golden   string
	record   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before the result: what the numbers rest on.
type detail struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     bool           `json:"trace"`
	Host      hostStamp      `json:"host"`
	Clients   int            `json:"clients"`
	Passes    []float64      `json:"pass_s"`
	PassP50   []float64      `json:"pass_p50_ms,omitempty"`
	PassP99   []float64      `json:"pass_p99_ms,omitempty"`
	Setups    []float64      `json:"setup_s"`
	Samples   map[string]int `json:"samples"`
	ErrorRate float64        `json:"error_rate"`
	Digest    string         `json:"bodies_sha256"`
	Golden    string         `json:"golden"`
	Problems  []string       `json:"problems,omitempty"`
	SpanFile  string         `json:"span_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every input is derived from it")
	fs.IntVar(&o.seconds, "seconds", 15, "pass time to measure, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory (stores, span files)")
	fs.StringVar(&o.golden, "golden", filepath.Join("perfbench", "golden"), "directory of the golden body digests")
	fs.BoolVar(&o.record, "record-golden", false, "write this run's body digests into the golden table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	res, det, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range det.Problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	w := bufio.NewWriter(stdout)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]detail{"perfbench": det})
	enc.Encode(res)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// passStats is one timed pass plus the state the traced run reads.
type passStats struct {
	out    outcome
	setup  time.Duration
	traced bool
	node   *node
	dir    string
	pool   sim.PoolStats
	writes int64 // pack INDEX rewrites over the server's life
	openNS int64
}

// bench holds one run's state.
type bench struct {
	o       options
	in      workloadInputs
	clients int
	work    string
	tr      *tracer
	ref     *outcome            // first pass: every later pass must match it
	fixture map[string][32]byte // restart-replay: spec body -> body digest at fill
	probs   problems
	keys    []string // run keys of the probed specs (traced runs)
	sent    int
	failed  int
}

func execute(o options) (result, detail, error) {
	in, err := genInputs(o.workload, o.seed)
	if err != nil {
		return result{}, detail{}, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, detail{}, err
	}
	work, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return result{}, detail{}, err
	}
	defer os.RemoveAll(work)
	b := &bench{o: o, in: in, clients: clientsFor(o.workload), work: work}
	if o.trace {
		b.tr = newTracer()
	}
	det := detail{Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: stamp(), Clients: b.clients, Samples: map[string]int{}}

	if len(in.Fill) > 0 {
		if err := b.fill(); err != nil {
			return result{}, detail{}, err
		}
	}

	// Memory is measured from here on: the fixture's heap is collected
	// and returned to the OS and the RSS high-water mark reset, so
	// rss_peak_mib covers the passes and their set-ups only.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return result{}, detail{}, err
	}
	var passes []passStats
	measureStart := time.Now()
	var measured time.Duration
	for p := 0; ; p++ {
		traced := o.trace && p%2 == 1
		// Each pass starts from a collected heap, so passes do not inherit
		// each other's garbage. The memory stays with the process, as it
		// does in a server that keeps running: returning it to the OS here
		// would make every pass start by faulting its heap back in.
		runtime.GC()
		ps, err := b.pass(p, traced)
		if err != nil {
			return result{}, detail{}, err
		}
		measured += ps.out.wall
		stop := measured >= time.Duration(o.seconds)*time.Second || time.Since(measureStart) > maxMeasure
		if o.trace {
			// A traced run alternates untraced and traced passes and ends
			// on a traced one, whose server the layer probes still read.
			stop = stop && traced
		}
		if !stop || !o.trace {
			if err := ps.node.close(); err != nil {
				return result{}, detail{}, fmt.Errorf("closing pass %d server: %w", p, err)
			}
			ps.node = nil
		}
		passes = append(passes, ps)
		if stop {
			break
		}
	}
	rssMiB, err := peakRSSMiB()
	if err != nil {
		return result{}, detail{}, err
	}
	for _, ps := range passes {
		det.Passes = append(det.Passes, ps.out.wall.Seconds())
		det.Setups = append(det.Setups, ps.setup.Seconds())
	}
	var setUpSum float64
	for _, d := range det.Setups {
		setUpSum += d
	}
	for p := len(passes); !o.trace && (len(det.Setups) < minSetUps || setUpSum < setUpTime.Seconds() && len(det.Setups) < maxSetUps); p++ {
		d, err := b.extraSetUp(p)
		if err != nil {
			return result{}, detail{}, fmt.Errorf("set-up %d: %w", p, err)
		}
		det.Setups = append(det.Setups, d.Seconds())
		setUpSum += d.Seconds()
	}

	if err := b.checkOracle(); err != nil {
		b.probs.add("oracle: %v", err)
	}
	det.Digest = bodiesDigest(b.ref.digest)
	det.Golden = b.checkGolden(det.Digest)

	res := result{Attempted: b.sent, Failed: b.failed}
	det.ErrorRate = ratio(int64(b.failed), int64(b.sent))
	if o.trace {
		last := passes[len(passes)-1]
		metrics, err := b.layerMetrics(passes)
		if cerr := last.node.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, detail{}, err
		}
		if err := b.clusterProbe(last, metrics); err != nil {
			return result{}, detail{}, err
		}
		res.Metrics = metrics
		det.SpanFile = filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(det.SpanFile, b.tr.snapshot()); err != nil {
			return result{}, detail{}, fmt.Errorf("writing spans: %w", err)
		}
		det.Samples["spans"] = len(b.tr.snapshot())
	} else {
		res.Metrics = b.endToEnd(passes, append([]float64(nil), det.Setups...), rssMiB, &det)
	}
	det.Problems = b.probs.list
	res.Correct = len(b.probs.list) == 0 && b.failed == 0
	return res, det, nil
}

// clientsFor is the closed loop's client count: one per CPU up to two,
// except paper-figures, whose generators differ so much in size that a
// second client makes the pass time depend on how they pair up.
func clientsFor(workload string) int {
	if workload == "paper-figures" {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// fill builds restart-replay's store: every spec is simulated once
// through the server, and each body is kept as the reference the replays
// must reproduce. Fixture work: never timed.
func (b *bench) fill() error {
	n, err := openNode(filepath.Join(b.work, "replay"), nil)
	if err != nil {
		return err
	}
	c, tr, err := newClient(n.base, b.clients)
	if err != nil {
		n.close()
		return err
	}
	o := drive(context.Background(), c, b.in.Fill, b.clients, nil, "f", 0)
	tr.CloseIdleConnections()
	b.account(o, "fill")
	b.fixture = make(map[string][32]byte, len(b.in.Fill))
	for i, rq := range b.in.Fill {
		if o.errs[i] == nil && o.cache[i] != "miss" {
			b.probs.add("fill request %d: X-Cache %q, want miss", i, o.cache[i])
		}
		b.fixture[string(rq.Body)] = o.digest[i]
	}
	return n.close()
}

// pass sets up a server, times one pass over the workload's requests, and
// checks every reply. The server is returned open.
func (b *bench) pass(p int, traced bool) (passStats, error) {
	var tr *tracer
	if traced {
		tr = b.tr
	}
	ps := passStats{traced: traced, dir: b.dataDir(p)}
	start := time.Now()
	n, c, transport, err := b.setUp(p, ps.dir, tr)
	if err != nil {
		return ps, err
	}
	ps.setup = time.Since(start)
	ps.node = n
	defer transport.CloseIdleConnections()

	keep := 0
	if p == 0 {
		keep = oracleSample(b.o.workload)
	}
	ps.out = drive(context.Background(), c, b.in.Pass, b.clients, tr, fmt.Sprintf("p%d", p), keep)
	ps.pool = n.engine.PoolStats()
	ps.writes = n.pack.PackStats().IndexWrites
	ps.openNS = n.openNS
	b.account(ps.out, fmt.Sprintf("pass %d", p))
	b.checkPass(p, &ps.out)
	return ps, nil
}

// dataDir is the data directory of pass p's server: a fresh one per pass,
// except restart-replay, which reopens the store its fill wrote.
func (b *bench) dataDir(p int) string {
	if len(b.in.Fill) > 0 {
		return filepath.Join(b.work, "replay")
	}
	return filepath.Join(b.work, fmt.Sprintf("pass-%d", p))
}

// setUp is what setup_s times: open a server on dir and prime its cache.
func (b *bench) setUp(p int, dir string, tr *tracer) (*node, *client.Client, *http.Transport, error) {
	n, err := openNode(dir, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	c, transport, err := newClient(n.base, b.clients)
	if err != nil {
		n.close()
		return nil, nil, nil, err
	}
	if len(b.in.Prime) > 0 {
		o := drive(context.Background(), c, b.in.Prime, b.clients, tr, fmt.Sprintf("s%d", p), 0)
		b.account(o, "prime")
		for i := range b.in.Prime {
			if o.errs[i] == nil && o.cache[i] != "miss" {
				b.probs.add("set-up %d priming request %d: X-Cache %q, want miss", p, i, o.cache[i])
			}
		}
	}
	return n, c, transport, nil
}

// setup_s is the median of at least minSetUps set-ups, and of more, up
// to maxSetUps, until the set-ups add up to setUpTime: a millisecond
// set-up on a fresh data directory varies several-fold from one to the
// next. A run has fewer passes than that,
// so after the passes it sets up (and closes) servers with nothing timed
// behind them.
const (
	minSetUps = 15
	maxSetUps = 100
	setUpTime = time.Second
)

// extraSetUp times set-up number p with no pass behind it.
func (b *bench) extraSetUp(p int) (time.Duration, error) {
	start := time.Now()
	n, _, transport, err := b.setUp(p, b.dataDir(p), nil)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	transport.CloseIdleConnections()
	return d, n.close()
}

// account adds an outcome's requests to the run totals and records its
// first failure.
func (b *bench) account(o outcome, what string) {
	b.sent += len(o.errs)
	b.failed += o.failed
	for i, err := range o.errs {
		if err != nil {
			b.probs.add("%s request %d failed: %v", what, i, err)
			return
		}
	}
}

// wantCache is the X-Cache state every timed reply must carry.
var wantCache = map[string]string{
	"cold-sweep":     "miss",
	"warm-grid":      "hit",
	"restart-replay": "hit",
	"paper-figures":  "miss",
}

// checkPass compares a pass's replies with the first pass's, with the
// fill-time bodies (restart-replay) and with the expected cache state,
// naming the first request that diverged.
func (b *bench) checkPass(p int, o *outcome) {
	if b.ref == nil {
		b.ref = o
	}
	want := wantCache[b.o.workload]
	for i, rq := range b.in.Pass {
		if o.errs[i] != nil {
			continue
		}
		if o.cache[i] != want {
			b.probs.add("pass %d request %d: X-Cache %q, want %q", p, i, o.cache[i], want)
			return
		}
		if o.digest[i] != b.ref.digest[i] {
			b.probs.add("pass %d request %d: body differs from pass 0's", p, i)
			return
		}
		if b.fixture != nil && o.digest[i] != b.fixture[string(rq.Body)] {
			b.probs.add("pass %d request %d: body differs from the one returned when the store was filled", p, i)
			return
		}
	}
}

// oracleSample is how many first-pass replies the oracle re-simulates.
func oracleSample(workload string) int {
	switch workload {
	case "cold-sweep", "restart-replay":
		return 12 // 24 runs, two per scenario on average
	case "warm-grid":
		return 2 // 32 runs
	}
	return 0 // paper-figures: pinned by the golden table at every seed
}

func (b *bench) checkOracle() error {
	for i := 0; i < len(b.ref.kept); i++ {
		body, ok := b.ref.kept[i]
		if !ok {
			continue
		}
		if err := checkAgainstOracle(b.in.Pass[i], body); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// endToEnd computes the user-visible metrics over the timed passes.
// Throughput and pass time are means over the run, so a run averages
// over the host's slow and fast spells instead of picking one; set-up
// time is the median over every set-up. Each latency percentile is
// taken over one pass's raw samples. For p50 the interquartile mean over
// passes is reported: per-pass medians move between scheduling spells
// that last seconds (restart-replay's sat near 0.35 ms in some and 0.55
// ms in others on a 2-vCPU host), and a median over passes picks one
// spell where the mean averages them. For p99 the median over passes is
// reported: a pass's tail is pushed up by host stalls, which only ever
// add time, and a median ignores any minority of stalled passes. rssMiB
// is the high-water mark over all passes.
func (b *bench) endToEnd(passes []passStats, setups []float64, rssMiB float64, det *detail) map[string]metric {
	var runs, samples int
	var wall time.Duration
	for _, ps := range passes {
		var pl []float64
		for i, d := range ps.out.lat {
			if ps.out.errs[i] == nil {
				pl = append(pl, float64(d.Nanoseconds())/1e6)
				runs += b.in.Pass[i].Runs
			}
		}
		samples += len(pl)
		det.PassP50 = append(det.PassP50, quantile(pl, 0.50))
		det.PassP99 = append(det.PassP99, quantile(pl, 0.99))
		wall += ps.out.wall
	}
	det.Samples["latency"] = samples
	det.Samples["latency_per_pass"] = len(b.in.Pass)
	det.Samples["passes"] = len(passes)
	det.Samples["setups"] = len(setups)
	return map[string]metric{
		"runs_per_s":     {float64(runs) / wall.Seconds(), "1/s"},
		"latency_p50_ms": {midMean(append([]float64(nil), det.PassP50...)), "ms"},
		"latency_p99_ms": {median(append([]float64(nil), det.PassP99...)), "ms"},
		"suite_s":        {wall.Seconds() / float64(len(passes)), "s"},
		"setup_s":        {median(setups), "s"},
		"rss_peak_mib":   {rssMiB, "MiB"},
	}
}

// problems collects failed checks.
type problems struct{ list []string }

func (p *problems) add(format string, args ...any) {
	if len(p.list) < 20 {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	}
}

// hostStamp identifies where and on what a result was measured.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func stamp() hostStamp {
	h := hostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// resetPeakRSS resets the process's RSS high-water mark to its current
// RSS (Linux clear_refs "5").
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
