package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	// shift shrinks every input by 2^shift vertices: 0 is the benchmark's
	// own size; the smoke test shrinks the inputs to run in seconds.
	shift int
}

// workload is one set of inputs the benchmark runs. Its set-up is timed
// and repeated; its timed phase runs ops (one call chain a user would
// ask for: a simulation, a reorder pipeline, a served request) until the
// run length has passed.
type workload struct {
	name string
	why  string
	// tail is the percentile of the run-wide tail latency the run prints.
	// It is fixed per workload, so its position among the workload's op
	// types does not move from run to run, and the timed phase runs on
	// until tailSamples samples lie beyond it.
	tail  float64
	setup func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"sim-pull", "SimulateSpMV with default options over the six graphs: the columns fast path, where cachesim takes about 90% of the time and trace about 10%", 0.90, setupSimPull},
	{"sim-tables", "PerVertex, ECS-snapshot, Threads+TLB and Push option sets: the Access-record path, attribution, snapshots and TLB that sim-pull bypasses", 0.90, setupSimTables},
	{"pipeline", "light orderings through reorder, relabel, simulate and SpMV, and SlashBurn, Rabbit-Order and GOrder through reorder and relabel: the reorder and graph layers", 0.90, setupPipeline},
	{"serve-mixed", "closed loop of NumCPU clients on an in-process server: simulate, reorder and metrics jobs with about 25% cache misses; the serve and store layers", 0.99, setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a set-up workload, ready to run.
type instance interface {
	// timed runs one timed phase within budget b. tr is nil when untraced.
	timed(b budget, tr *tracer, chk *checker) (*phase, error)
	// verify runs the reference checks, after the timed phases.
	verify(chk *checker)
	// layers fills the per-layer metrics of a traced run.
	layers(m map[string]float64, rd *runData, chk *checker)
	close()
}

// budget says how long a timed phase runs: until d has passed and at
// least minOps ops and minWindows windows have completed or, when passes
// is above 0, for that many passes (serve-mixed: thousands of requests).
// ref runs after every window.
type budget struct {
	d                  time.Duration
	minOps, minWindows int
	passes             float64
	ref                *refKernel
}

// sample is one op's latency.
type sample struct {
	key   string
	dur   time.Duration
	edges uint64
	win   int // the window the op ran in
}

// phase is what one timed phase measured. Its ops fall into windows of
// equal work: one whole pass over the op list of a sequential workload,
// or windowSize requests of serve-mixed. After each window the reference
// kernel runs alone, and the window is read in units of its time.
type phase struct {
	samples []sample
	// span is each window's length: the summed time of its ops where they
	// run one at a time, the wall time of its requests where they overlap.
	span []time.Duration
	// ref is the reference kernel's time right after each window.
	ref []time.Duration
	// passes counts whole passes over the op set (serve-mixed: requests
	// per thousand).
	passes float64
}

// endWindow closes the window whose ops are the samples since the last
// one: it records the window's span and runs the reference kernel.
func (p *phase) endWindow(span time.Duration, ref *refKernel) {
	p.span = append(p.span, span)
	p.ref = append(p.ref, ref.run())
}

// add appends q's windows and samples to p, after p's own.
func (p *phase) add(q *phase) {
	off := len(p.span)
	for _, s := range q.samples {
		s.win += off
		p.samples = append(p.samples, s)
	}
	p.span = append(p.span, q.span...)
	p.ref = append(p.ref, q.ref...)
	p.passes += q.passes
}

// minWindows is the fewest windows a run measures, so that the medians
// over windows are medians of several.
const minWindows = 10

// windows returns each window's throughput in Medge per reference time
// and its median op latency in reference times.
func (p *phase) windows() (medges, p50 []float64) {
	edges := make([]uint64, len(p.span))
	lat := make([][]float64, len(p.span))
	for _, s := range p.samples {
		edges[s.win] += s.edges
		lat[s.win] = append(lat[s.win], float64(s.dur))
	}
	for i, d := range p.span {
		ref := float64(p.ref[i])
		medges = append(medges, float64(edges[i])/1e6/(float64(d)/ref))
		p50 = append(p50, median(lat[i])/ref)
	}
	return medges, p50
}

// medgesPerRef is the median over windows of the edges processed, in
// millions, per reference time.
func (p *phase) medgesPerRef() float64 {
	medges, _ := p.windows()
	return median(medges)
}

// latencyP50Ref is the median over windows of the window's median op
// latency in reference times.
func (p *phase) latencyP50Ref() float64 {
	_, p50 := p.windows()
	return median(p50)
}

// medgesPerS is the run's plain throughput: all its edges over the
// summed length of its windows.
func (p *phase) medgesPerS() float64 {
	var edges uint64
	for _, s := range p.samples {
		edges += s.edges
	}
	var d time.Duration
	for _, x := range p.span {
		d += x
	}
	return float64(edges) / d.Seconds() / 1e6
}

func (p *phase) latenciesMS() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = float64(s.dur) / 1e6
	}
	return xs
}

// runData is what a traced run's layer accounting reads.
type runData struct {
	setups []float64 // seconds per set-up
	base   *phase    // untraced timed phase
	traced *phase
	spans  []span // every span of the run
}

// setups is how many times an untraced run sets up. The set-ups are
// spread over the run, each followed by an equal share of the timed
// phase, so that they meet different host phases; setup_s is their
// median. A traced run reports no setup_s and sets up once.
const setups = 3

// tracedShare is the share of the untraced phase's passes that the traced
// phase repeats: enough for each op's median, and few enough to keep a
// traced run under 30 s.
const tracedShare = 0.2

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's record: the result line plus what a reader of the
// -out file needs to judge it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Errors    []string           `json:"errors,omitempty"`
}

// line is the result line: the last line the benchmark prints.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) line() line {
	return line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// run runs one workload: set-ups interleaved with the untraced timed
// phase, with cfg.trace the traced phase and the layer-alone passes, then
// the correctness gate. It returns the tracer so its spans can be written
// out.
func run(cfg config) (*result, *tracer, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	info := map[string]float64{"gomaxprocs": float64(runtime.GOMAXPROCS(0))}
	ref := newRefKernel()

	var tr *tracer
	segments, d := setups, cfg.duration
	if cfg.trace {
		// Half the untraced phase leaves time for the traced phase and the
		// layer-alone passes within 30 s.
		tr = newTracer()
		segments, d = 1, d/2
	}
	// Each segment's budget is an equal share of the run's, rounded up.
	share := func(n int) int { return (n + segments - 1) / segments }
	seg := budget{d: d / time.Duration(segments), minOps: share(minSamples(w.tail)), minWindows: share(minWindows), ref: ref}

	chk := newChecker()
	base := &phase{}
	var inst instance
	var setupTimes, setupRefS []float64 // host seconds, reference seconds
	var before, after runtime.MemStats
	var gcCycles uint32
	var gcPause, alloc uint64
	for s := 0; s < segments; s++ {
		if inst != nil {
			inst.close()
			inst = nil // so the collection below frees its inputs
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg, tr); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took := time.Since(start).Seconds()
		setupTimes = append(setupTimes, took)

		runtime.GC()
		runtime.ReadMemStats(&before)
		ph, err := inst.timed(seg, nil, chk)
		if err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runtime.ReadMemStats(&after)
		gcCycles += after.NumGC - before.NumGC
		gcPause += after.PauseTotalNs - before.PauseTotalNs
		alloc += after.TotalAlloc - before.TotalAlloc
		base.add(ph)
		// The set-up is read against the median reference time of the
		// windows that follow it: the nearest steady measure of the host.
		setupRefS = append(setupRefS, took*refNominal.Seconds()/medianDuration(ph.ref).Seconds())
	}
	defer inst.close()

	rd := &runData{setups: setupTimes, base: base}
	if cfg.trace {
		var err error
		if rd.traced, err = inst.timed(budget{passes: tracedShare * base.passes, ref: ref}, tr, chk); err != nil {
			return nil, nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
	}
	inst.verify(chk)

	lat := base.latenciesMS()
	if w.tail > maxTailPct(len(lat)) || len(base.span) < minWindows {
		return nil, nil, fmt.Errorf("%s: %d samples in %d windows leave fewer than %d beyond p%g or fewer than %d windows",
			w.name, len(lat), len(base.span), tailSamples, 100*w.tail, minWindows)
	}
	info["latency_samples"] = float64(len(lat))
	info["windows"] = float64(len(base.span))
	info["passes"] = base.passes
	info["latency_tail_pct"] = 100 * w.tail
	info["latency_tail_ms"] = percentile(lat, w.tail)
	info["latency_median_ms"] = median(lat)
	info["medges_per_s"] = base.medgesPerS()
	info["ref_ms"] = float64(medianDuration(base.ref)) / 1e6
	info["setup_host_s"] = median(setupTimes)

	vals := map[string]float64{}
	if cfg.trace {
		rd.spans = tr.snapshot()
		inst.layers(vals, rd, chk)
	}
	tab := endToEnd
	if cfg.trace {
		tab = perLayer
		vals["trace.overhead_frac"] = base.medgesPerRef()/rd.traced.medgesPerRef() - 1
		vals["runtime.gc_cycles"] = float64(gcCycles) / base.passes
		vals["runtime.gc_pause_ms"] = float64(gcPause) / 1e6 / base.passes
		vals["runtime.alloc_mb"] = float64(alloc) / (1 << 20) / base.passes
		vals["runtime.gomaxprocs"] = info["gomaxprocs"]
		vals["host.calib_ns"] = float64(medianDuration(base.ref)) / refAccesses
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		vals["setup_s"] = median(setupRefS)
		vals["medges_per_ref"] = base.medgesPerRef()
		vals["latency_p50_ref"] = base.latencyP50Ref()
		vals["peak_rss_mb"] = rss
	}
	metrics := make(map[string]value, len(tab))
	for _, m := range tab {
		v := vals[m.Name] // a layer the workload does not run reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", w.name, m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
	}

	res := &result{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: chk.attempted(), Failed: chk.failedOps(),
		Metrics: metrics, Info: info, Errors: chk.errs,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	info["fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, tr, nil
}
