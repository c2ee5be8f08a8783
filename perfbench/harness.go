package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/pack"
	"repro/pkg/api"
	"repro/pkg/client"
)

// requestTimeout bounds one client call; the slowest quick-scale request
// (fig12) takes under a second, so hitting it means a wedged server.
const requestTimeout = 30 * time.Second

// node is one in-process server deployed as `impact-server -data-dir`
// deploys it: a pack result store and a job journal under dir, served on
// a loopback listener.
type node struct {
	pack   *pack.Store
	engine *exp.Engine
	srv    *exp.Server
	hs     *http.Server
	served chan error
	base   string
	openNS int64 // pack.Open wall time
}

// openNode starts a server over the pack store in dir. With a tracer the
// store and the handler are wrapped in timing shims; without one the
// server is exactly the production assembly.
func openNode(dir string, tr *tracer) (*node, error) {
	start := time.Now()
	ps, err := pack.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening pack store: %w", err)
	}
	n := &node{pack: ps, openNS: time.Since(start).Nanoseconds()}
	journal, err := exp.NewJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		ps.Close()
		return nil, fmt.Errorf("opening job journal: %w", err)
	}
	var store exp.ResultStore = ps
	if tr != nil {
		store = &timedStore{inner: ps, tr: tr}
	}
	n.engine = exp.NewEngine(exp.WithStore(store))
	n.srv = exp.NewServer(n.engine, exp.WithJournal(journal), exp.WithNodeIdentity("solo", "pack", 0))
	handler := n.srv.Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ps.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n.hs = &http.Server{Handler: handler}
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
	n.base = "http://" + ln.Addr().String()
	return n, nil
}

// close stops the listener, waits for its serve loop, drains background
// jobs and seals the store.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := n.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if cerr := n.pack.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// captureKey carries a *captured through a request context, so the
// capturing transport can hand the raw response bytes back to the caller
// that pkg/client otherwise decodes them for.
type captureKey struct{}

type captured struct{ body []byte }

type captureTransport struct{ base http.RoundTripper }

func (t captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c, _ := req.Context().Value(captureKey{}).(*captured)
	if c == nil {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.body = body
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// newClient returns a pkg/client for base over a private transport with
// at most conns connections; it never retries, so every failure counts.
func newClient(base string, conns int) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	c, err := client.New(base,
		client.WithHTTPClient(&http.Client{Transport: captureTransport{base: tr}}),
		client.WithTimeout(requestTimeout),
		client.WithRetry(0, 0))
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}

// reply is what one call returned.
type reply struct {
	body  []byte
	cache string // X-Cache state
	value any    // the decoded document pkg/client returned
}

// call sends one generated request through pkg/client.
func call(ctx context.Context, c *client.Client, rq request) (reply, error) {
	var cp captured
	ctx = context.WithValue(ctx, captureKey{}, &cp)
	switch rq.Method {
	case http.MethodPost:
		res, info, err := c.Run(ctx, rq.Spec)
		if err != nil {
			return reply{}, err
		}
		if len(res.Runs) != rq.Runs {
			return reply{}, fmt.Errorf("response carries %d runs, want %d", len(res.Runs), rq.Runs)
		}
		return reply{body: cp.body, cache: info.State, value: res}, nil
	default:
		rep, info, err := c.Figure(ctx, rq.Spec.Scenario, rq.Spec.Scale)
		if err != nil {
			return reply{}, err
		}
		return reply{body: cp.body, cache: info.State, value: rep}, nil
	}
}

// outcome is one pass over a request list, indexed by request.
type outcome struct {
	lat     []time.Duration
	digest  [][32]byte
	bytes   []int
	cache   []string
	errs    []error
	failed  int
	wall    time.Duration
	encodes []time.Duration // traced passes only
	kept    map[int][]byte  // bodies of the first keep requests
}

// drive runs reqs as a closed loop: each of clients goroutines sends its
// next request only after its previous reply arrived. Requests are
// claimed in index order, so the outcome is indexed identically whatever
// the client count. With a tracer, each call runs under the request ID
// label-i and spans are recorded around the round trip and the re-encode.
// The bodies of requests below keep are returned whole.
func drive(ctx context.Context, c *client.Client, reqs []request, clients int, tr *tracer, label string, keep int) outcome {
	o := outcome{
		lat:    make([]time.Duration, len(reqs)),
		digest: make([][32]byte, len(reqs)),
		bytes:  make([]int, len(reqs)),
		cache:  make([]string, len(reqs)),
		errs:   make([]error, len(reqs)),
		kept:   make(map[int][]byte, keep),
	}
	if tr != nil {
		o.encodes = make([]time.Duration, len(reqs))
	}
	var next atomic.Int64
	var keptMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				rctx := ctx
				var sp int
				if tr != nil {
					id := fmt.Sprintf("%s-%d", label, i)
					rctx = api.WithRequestID(ctx, id)
					sp = tr.begin("http", id, "")
				}
				t0 := time.Now()
				rep, err := call(rctx, c, reqs[i])
				o.lat[i] = time.Since(t0)
				if tr != nil {
					tr.end(sp)
					id := api.RequestID(rctx)
					es := tr.begin("encode", id, "")
					e0 := time.Now()
					if err == nil {
						_, err = json.Marshal(rep.value)
					}
					o.encodes[i] = time.Since(e0)
					tr.end(es)
				}
				if err != nil {
					o.errs[i] = err
					continue
				}
				o.digest[i] = sha256.Sum256(rep.body)
				o.bytes[i] = len(rep.body)
				o.cache[i] = rep.cache
				if i < keep {
					keptMu.Lock()
					o.kept[i] = rep.body
					keptMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	o.wall = time.Since(start)
	for _, err := range o.errs {
		if err != nil {
			o.failed++
		}
	}
	return o
}
