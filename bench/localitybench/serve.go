package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"graphlocality/internal/serve"
)

// serveTemplate is one request shape of the serve-mixed pool; a fresh
// request fills it with a graph seed never used before, so it misses.
type serveTemplate struct {
	kind  serve.JobKind
	graph string
	scale int
	alg   string
}

// serveTemplates is the request pool: every job kind over every graph
// family at two sizes.
var serveTemplates = func() []serveTemplate {
	var ts []serveTemplate
	for _, graph := range []string{"social", "web", "er", "ba"} {
		for _, scale := range []int{11, 12} {
			for _, alg := range []string{"", "dbg"} {
				ts = append(ts, serveTemplate{serve.KindSimulate, graph, scale, alg})
			}
			for _, alg := range []string{"dbg", "hubsort", "rcm"} {
				ts = append(ts, serveTemplate{serve.KindReorder, graph, scale, alg})
			}
			ts = append(ts, serveTemplate{serve.KindMetrics, graph, scale, ""})
		}
	}
	return ts
}()

const (
	// Every missEvery-th request asks for a spec never seen before, which
	// misses; the rest repeat an earlier spec and hit the store.
	missEvery = 4
	// repeatLag keeps the newest specs out of the repeat draw, so a
	// repeat rarely waits on its spec's first, still running, request.
	repeatLag = 4
)

// windowSize is how many requests make one serve-mixed window: one fresh
// spec of every template, and the repeats between them, so every window
// computes the same jobs.
var windowSize = missEvery * len(serveTemplates)

// requestGen draws the request sequence: a pure function of the seed and
// the request index. Fresh specs walk the templates in a seeded order,
// one of each per round, so every seed computes the same mix of jobs, on
// different graphs.
type requestGen struct {
	rng   splitmix
	seed  uint64
	shift int
	order []int // a seeded permutation of serveTemplates
	specs []serve.JobRequest
	n     int // requests drawn by next
}

func newRequestGen(seed uint64, shift int) *requestGen {
	g := &requestGen{rng: splitmix(mix(seed, 0x5e7e)), seed: seed, shift: shift}
	g.order = make([]int, len(serveTemplates))
	for i := range g.order {
		j := int(g.rng.next() % uint64(i+1))
		g.order[i], g.order[j] = g.order[j], i
	}
	return g
}

// next returns the index of the next request's spec: every missEvery-th
// a fresh one, the others one drawn at random from the earlier specs.
func (g *requestGen) next() int {
	g.n++
	if g.n%missEvery == 0 || len(g.specs) <= repeatLag {
		return g.fresh()
	}
	return int(g.rng.next() % uint64(len(g.specs)-repeatLag))
}

// fresh adds a spec never issued before and returns its index.
func (g *requestGen) fresh() int {
	t := serveTemplates[g.order[len(g.specs)%len(g.order)]]
	seed := mix(g.seed, uint64(len(g.specs))+1) | 1 // 0 would mean the server default
	g.specs = append(g.specs, serve.JobRequest{
		Kind:   t.kind,
		Graph:  serve.GraphSpec{Kind: t.graph, Scale: max(t.scale-g.shift, 4), EdgeFactor: 8, Seed: seed},
		Tenant: "bench",
		Alg:    t.alg,
	})
	return len(g.specs) - 1
}

// splitmix is a splitmix64 stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix(0, uint64(*s))
}

// reply is one request's outcome as the client saw it.
type reply struct {
	spec   int
	dur    time.Duration
	status int
	st     serve.JobStatus
	err    error
	depth  int // server queue depth when the request was sent
}

// serveWorkload is an in-process server behind httptest on loopback, with
// its result store in a temporary directory, and NumCPU closed-loop
// clients.
type serveWorkload struct {
	cfg     config
	clients int
	srv     *serve.Server
	hs      *httptest.Server
	dir     string
	client  *http.Client
	gen     *requestGen
	// warm holds the set-up's replies until the first timed phase checks
	// them; base holds the untraced phase's replies for the layer metrics.
	warm, base []reply
}

func setupServe(cfg config, tr *tracer) (instance, error) {
	w := &serveWorkload{cfg: cfg, clients: runtime.NumCPU()}
	if err := w.start(tr); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// start brings up a fresh server and store and computes one fresh spec of
// every template, so the timed phase starts with specs to repeat.
func (w *serveWorkload) start(tr *tracer) error {
	dir, err := os.MkdirTemp("", "localitybench-serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.srv = serve.New(serve.Config{Workers: w.clients, CacheDir: dir, Log: log.New(io.Discard, "", 0)})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients},
		Timeout:   time.Minute,
	}
	w.gen = newRequestGen(w.cfg.seed, w.cfg.shift)
	w.warm = w.warm[:0]
	for i := range serveTemplates {
		spec := w.gen.fresh()
		r := w.do(spec, w.gen.specs[spec], tr)
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm request %d: status %d: %v", i, r.status, r.err)
		}
		w.warm = append(w.warm, r)
	}
	return nil
}

// do sends one synchronous job request for spec.
func (w *serveWorkload) do(spec int, req serve.JobRequest, tr *tracer) reply {
	r := reply{spec: spec, depth: w.srv.QueueDepth()}
	body, err := json.Marshal(req)
	if err != nil {
		r.err = err
		return r
	}
	id := tr.begin("serve.POST /v1/jobs", 0)
	start := time.Now()
	resp, err := w.client.Post(w.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		r.status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&r.st)
		resp.Body.Close()
	}
	r.dur = time.Since(start)
	tr.end(id)
	r.err = err
	return r
}

// timed runs the closed loop one window at a time: the clients send
// windowSize requests between them, each its next when the last returns,
// and the window ends when all have returned. A traced phase starts over
// on a fresh server and store, so it sees the same hit and miss mix as the
// first.
func (w *serveWorkload) timed(b budget, tr *tracer, chk *checker) (*phase, error) {
	if b.passes > 0 {
		w.close()
		if err := w.start(tr); err != nil {
			return nil, err
		}
	}
	for _, r := range w.warm {
		w.observe(chk, r)
	}
	ph := &phase{}
	var replies []reply
	start := time.Now()
	for {
		n := len(replies)
		if b.passes > 0 {
			if float64(n) >= 1000*b.passes {
				break
			}
		} else if time.Since(start) >= b.d && n >= b.minOps && len(ph.span) >= b.minWindows {
			break
		}
		span := w.window(&replies, tr)
		for _, r := range replies[n:] {
			var edges uint64
			if r.st.Result != nil {
				edges = r.st.Result.Edges
			}
			ph.samples = append(ph.samples, sample{key: w.key(r.spec), dur: r.dur, edges: edges, win: len(ph.span)})
		}
		ph.endWindow(span, b.ref)
	}
	ph.passes = float64(len(replies)) / 1000
	for _, r := range replies {
		w.observe(chk, r)
	}
	if b.passes == 0 {
		w.base = replies
	}
	return ph, nil
}

// window runs one window of the closed loop, appends its replies and
// returns its wall time.
func (w *serveWorkload) window(replies *[]reply, tr *tracer) time.Duration {
	var (
		mu     sync.Mutex
		issued int
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if issued == windowSize {
					mu.Unlock()
					return
				}
				issued++
				spec := w.gen.next()
				req := w.gen.specs[spec]
				mu.Unlock()
				r := w.do(spec, req, tr)
				mu.Lock()
				*replies = append(*replies, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (w *serveWorkload) key(spec int) string {
	return w.gen.specs[spec].ArtifactKey()
}

// observe checks one reply: the job must be done, served from the store
// or computed into it, and its payload, less the measured ReorderMS, must
// equal every other payload of its spec.
func (w *serveWorkload) observe(chk *checker, r reply) {
	key := w.key(r.spec)
	switch {
	case r.err != nil:
		chk.observe(key, nil, r.err)
	case r.status != http.StatusOK || r.st.State != serve.StateDone || r.st.Result == nil:
		chk.observe(key, nil, fmt.Errorf("status %d, state %q: %s", r.status, r.st.State, r.st.Error))
	case r.st.Cache != "hit" && r.st.Cache != "miss":
		chk.observe(key, nil, fmt.Errorf("cache %q, want hit or miss", r.st.Cache))
	default:
		payload := *r.st.Result
		payload.ReorderMS = 0
		chk.observe(key, payload, nil)
	}
}

// verify has nothing left to check: every reply was compared with its
// spec's first payload as it was observed.
func (w *serveWorkload) verify(*checker) {}

func (w *serveWorkload) layers(m map[string]float64, _ *runData, _ *checker) {
	var hits, misses, server, transport []float64
	for _, r := range w.base {
		ms := float64(r.dur) / 1e6
		switch r.st.Cache {
		case "hit":
			hits = append(hits, ms)
		case "miss":
			misses = append(misses, ms)
		}
		if r.status == http.StatusTooManyRequests {
			m["serve.shed"]++
		}
		server = append(server, r.st.ElapsedMS)
		transport = append(transport, ms-r.st.ElapsedMS)
		m["serve.queue_depth_max"] = max(m["serve.queue_depth_max"], float64(r.depth))
	}
	m["serve.hit_p50_ms"] = median(hits)
	m["serve.miss_p50_ms"] = median(misses)
	m["serve.server_p50_ms"] = median(server)
	m["serve.transport_p50_ms"] = median(transport)
	m["serve.cache_hit_rate"] = float64(len(hits)) / float64(max(len(w.base), 1))
}

// close shuts the server down and removes its store.
func (w *serveWorkload) close() {
	if w.hs != nil {
		w.hs.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // a leftover store changes no result; each start makes its own
	}
	w.hs, w.srv, w.client, w.dir = nil, nil, nil, ""
}
