package perf

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// Workload is one macro-benchmark input: a graph plus the simulation
// options to run over it. The CLI builds workloads from the experiment
// dataset suite; keeping the type here leaves perf independent of expt.
type Workload struct {
	Name  string
	Graph *graph.Graph
	Opts  core.SimOptions
	// Build, when set, generates Graph again; Gen times it.
	Build func() *graph.Graph
}

// Options tunes a Pipeline run.
type Options struct {
	// Repeats is the number of timing repetitions per benchmark; NsPerOp is
	// their minimum (default 3). The first repetition doubles as warmup —
	// the minimum absorbs its cold-cache cost.
	Repeats int
	// Suite labels the report (e.g. "standard").
	Suite string
	// Progress, when non-nil, receives one line per finished benchmark.
	Progress func(name string, nsPerOp float64)
}

func (o *Options) repeats() int {
	if o.Repeats < 1 {
		return 3
	}
	return o.Repeats
}

func (o *Options) progress(name string, ns float64) {
	if o.Progress != nil {
		o.Progress(name, ns)
	}
}

// timeIt runs f `repeats` times and returns the minimum wall-clock
// duration — the standard least-noise estimator for a deterministic
// workload on a shared machine.
func timeIt(repeats int, f func()) time.Duration {
	var best time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// Pipeline runs the full benchmark suite — micro (cachesim, trace), the
// cache alone over the first workload's SpMV stream, the workloads' graph
// builds, macro (batched vs scalar SimulateSpMV over the given workloads)
// and GOrder over the ReorderShapes — and returns the report. The gen
// pass checks that every build reproduces its workload's graph, the macro
// pass that the batched and scalar results are identical, and the reorder
// pass that every repetition returns the same permutation, so a bench run
// doubles as a coarse differential test; a mismatch is returned as an
// error.
func Pipeline(workloads []Workload, opts Options) (Report, error) {
	r := Report{Schema: SchemaVersion, Suite: opts.Suite, GoMaxProcs: runtime.GOMAXPROCS(0)}
	Micro(&r, opts)
	if len(workloads) > 0 {
		SpMVAccess(&r, workloads[0].Graph, opts)
	}
	if err := Gen(&r, workloads, opts); err != nil {
		return r, err
	}
	if err := Macro(&r, workloads, opts); err != nil {
		return r, err
	}
	if err := Reorder(&r, ReorderShapes(), ReorderSpecs, opts); err != nil {
		return r, err
	}
	return r, nil
}

// ReorderSpecs are the orderings Pipeline times over the ReorderShapes:
// GOrder, the costliest reordering, exact and hub-capped.
var ReorderSpecs = []string{"go", "go:hubcap=sqrt"}

// ReorderShapes returns the Standard suite's generators shrunk 16-fold
// (logV−4, and the ER edge count by the same factor), named as in the
// suite: the shapes the pipeline benchmark reorders with the heavy
// orderings.
func ReorderShapes() []Workload {
	const shift = 4
	return []Workload{
		{Name: "TwtrS", Graph: gen.SocialNetwork(15-shift, 16, 42)},
		{Name: "FrndS", Graph: gen.SocialNetwork(16-shift, 12, 7)},
		{Name: "SKS", Graph: gen.WebGraph(gen.DefaultWebGraph(1<<(15-shift), 16, 9))},
		{Name: "WebS", Graph: gen.WebGraph(gen.DefaultWebGraph(1<<(16-shift), 10, 3))},
		{Name: "UKS", Graph: gen.WebGraph(gen.DefaultWebGraph(1<<(17-shift), 8, 5))},
		{Name: "UnifS", Graph: gen.ErdosRenyi(1<<(15-shift), 500000>>shift, 1)},
	}
}

// Reorder appends, per spec and workload, the time of one reorder of the
// workload's graph as reorder/<spec>/<name> in nanoseconds per run. It
// errors if a repetition returns a permutation other than the first's.
func Reorder(r *Report, workloads []Workload, specs []string, opts Options) error {
	rep := opts.repeats()
	for _, spec := range specs {
		alg, err := reorder.New(spec)
		if err != nil {
			return err
		}
		for _, w := range workloads {
			var first graph.Permutation
			var differ bool
			d := timeIt(rep, func() {
				p := reorder.Perm(alg, w.Graph)
				if first == nil {
					first = p
				} else if !slices.Equal(p, first) {
					differ = true
				}
			})
			if differ {
				return fmt.Errorf("perf: %s on %s returned different permutations", spec, w.Name)
			}
			name := "reorder/" + spec + "/" + w.Name
			ns := float64(d.Nanoseconds())
			r.Add(name, rep, ns)
			opts.progress(name, ns)
		}
	}
	return nil
}

// Gen appends, per workload with a Build, the time to generate its graph
// as gen/<name> in nanoseconds per edge: the set-up every experiment,
// bench and served job pays before its first reorder or simulation. It
// errors if a build differs from the workload's graph.
func Gen(r *Report, workloads []Workload, opts Options) error {
	rep := opts.repeats()
	for _, w := range workloads {
		if w.Build == nil {
			continue
		}
		var g *graph.Graph
		d := timeIt(rep, func() { g = w.Build() })
		if !g.Equal(w.Graph) {
			return fmt.Errorf("perf: building %s again gave a different graph", w.Name)
		}
		name := "gen/" + w.Name
		ns := float64(d.Nanoseconds()) / float64(max(g.NumEdges(), 1))
		r.Add(name, rep, ns)
		opts.progress(name, ns)
	}
	return nil
}

// microAccesses is the synthetic stream length for the cachesim micro
// benchmarks — long enough that per-call fixed costs vanish against the
// per-access work being measured.
const microAccesses = 1 << 20

// Micro appends the microbenchmarks: raw cache-simulator throughput
// (scalar Access vs AccessBatch over the same synthetic stream) and raw
// trace generation (per-access Run vs block RunBatched over the same
// graph). NsPerOp is nanoseconds per simulated access in all four.
func Micro(r *Report, opts Options) {
	rep := opts.repeats()

	// A power-law-skewed synthetic address stream: mostly-random lines over
	// a footprint ~8x the cache, with a hot subset, so both the hit and the
	// miss/eviction paths are exercised. Deterministic LCG; no time source.
	cfg := cachesim.Config{Name: "L3", LineSize: 64, Sets: 1 << 12, Ways: 8, Policy: cachesim.DRRIP}
	footprint := uint64(cfg.SizeBytes()) * 8
	addrs := make([]uint64, microAccesses)
	writes := make([]bool, microAccesses)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		a := state % footprint
		if state>>62 == 0 { // ~25% of accesses hit a small hot region
			a = state % (footprint / 64)
		}
		addrs[i] = a
		writes[i] = state>>61&1 == 0
	}

	accessRows(r, "cachesim/access", cfg, addrs, writes, 1, opts)

	// Trace generation over a small social graph (deterministic).
	g := gen.SocialNetwork(12, 12, 42)
	layout := trace.NewLayout(g)
	total := float64(trace.CountAccesses(g))
	var sinkAddr uint64

	tScalar := timeIt(rep, func() {
		trace.Run(g, layout, trace.Whole(g, trace.Pull), func(a trace.Access) bool { sinkAddr += a.Addr; return true })
	})
	name := "trace/run/scalar"
	ns := float64(tScalar.Nanoseconds()) / total
	r.Add(name, rep, ns)
	opts.progress(name, ns)

	tBatched := timeIt(rep, func() {
		trace.Generate(g, layout, trace.Whole(g, trace.Pull), 0, true, func(b *trace.Block) bool {
			for _, a := range b.Addrs {
				sinkAddr += a
			}
			return true
		})
	})
	name = "trace/run/batched"
	ns = float64(tBatched.Nanoseconds()) / total
	r.Add(name, rep, ns)
	opts.progress(name, ns)
	r.AddSpeedup("trace/run", float64(tScalar.Nanoseconds())/float64(tBatched.Nanoseconds()))
	_ = sinkAddr
}

// spmvMinAccesses is the least number of accesses one repetition of an
// SpMVAccess row simulates: the stream is replayed whole as many times as
// it takes to reach it, so that a repetition lasts some 50 ms or more and
// min-of-N compares repetitions long enough to ride out scheduler noise.
const spmvMinAccesses = 5 << 20

// SpMVAccess appends the cache simulator's throughput on a stream it is
// actually given: the pull SpMV access stream of g, materialized once,
// replayed through scalar Access and through AccessBatch in
// trace.DefaultBatchSize blocks, each replay into a fresh cache, until a
// repetition has simulated at least spmvMinAccesses accesses.
// cachesim/access/spmv runs it on the default ScaledL3 DRRIP geometry for
// g, and cachesim/access/tlb on the 4-way LRU ScaledTLB that covers 10% of
// g's footprint, as the simulations with a TLB use. NsPerOp is nanoseconds
// per simulated access.
func SpMVAccess(r *Report, g *graph.Graph, opts Options) {
	layout := trace.NewLayout(g)
	var addrs []uint64
	var writes []bool
	trace.Generate(g, layout, trace.Whole(g, trace.Pull), 0, false, func(b *trace.Block) bool {
		addrs = append(addrs, b.Addrs...)
		writes = append(writes, b.Writes...)
		return true
	})
	passes := max(1, (spmvMinAccesses+len(addrs)-1)/max(len(addrs), 1))
	paper := core.PaperOptions(g, trace.Pull)
	accessRows(r, "cachesim/access/spmv", paper.Cache, addrs, writes, passes, opts)

	tlbCfg := *paper.TLB
	timeRows(r, "cachesim/access/tlb", passes*len(addrs), func() {
		for range passes {
			t := cachesim.NewTLB(tlbCfg)
			for _, a := range addrs {
				t.Access(a)
			}
		}
	}, func() {
		for range passes {
			t := cachesim.NewTLB(tlbCfg)
			forBlocks(len(addrs), func(lo, hi int) { t.AccessBatch(addrs[lo:hi], nil) })
		}
	}, opts)
}

// accessRows times passes replays of one stream, each through a fresh
// cache of geometry cfg, once per scalar Access call and once through
// AccessBatch in trace.DefaultBatchSize blocks (see timeRows).
func accessRows(r *Report, name string, cfg cachesim.Config, addrs []uint64, writes []bool, passes int, opts Options) {
	timeRows(r, name, passes*len(addrs), func() {
		for range passes {
			c := cachesim.New(cfg)
			for i, a := range addrs {
				c.Access(a, writes[i])
			}
		}
	}, func() {
		for range passes {
			c := cachesim.New(cfg)
			forBlocks(len(addrs), func(lo, hi int) { c.AccessBatch(addrs[lo:hi], writes[lo:hi], nil) })
		}
	}, opts)
}

// timeRows times scalar and batched, which each simulate the same n
// accesses, and appends name/scalar and name/batched in nanoseconds per
// access, and their speedup as name.
func timeRows(r *Report, name string, n int, scalar, batched func(), opts Options) {
	rep := opts.repeats()
	tScalar := timeIt(rep, scalar)
	ns := float64(tScalar.Nanoseconds()) / float64(n)
	r.Add(name+"/scalar", rep, ns)
	opts.progress(name+"/scalar", ns)

	tBatched := timeIt(rep, batched)
	ns = float64(tBatched.Nanoseconds()) / float64(n)
	r.Add(name+"/batched", rep, ns)
	opts.progress(name+"/batched", ns)
	r.AddSpeedup(name, float64(tScalar.Nanoseconds())/float64(tBatched.Nanoseconds()))
}

// forBlocks calls f on [lo, hi) for consecutive trace.DefaultBatchSize
// blocks covering [0, n).
func forBlocks(n int, f func(lo, hi int)) {
	for lo := 0; lo < n; lo += trace.DefaultBatchSize {
		f(lo, min(lo+trace.DefaultBatchSize, n))
	}
}

// Macro appends, per workload, the scalar-reference and batched
// SimulateSpMV timings and their speedup — the headline number the bench
// gate protects. It errors if the two paths disagree on any workload (the
// bit-exactness contract, checked on the run's own output).
func Macro(r *Report, workloads []Workload, opts Options) error {
	rep := opts.repeats()
	var totalScalar, totalBatched float64
	for _, w := range workloads {
		var scalarRes, batchedRes core.SimResult
		scalar := timeIt(rep, func() { scalarRes = core.SimulateSpMVReference(w.Graph, w.Opts) })
		name := "simulate/scalar/" + w.Name
		ns := float64(scalar.Nanoseconds())
		r.Add(name, rep, ns)
		opts.progress(name, ns)

		batched := timeIt(rep, func() { batchedRes = core.SimulateSpMV(w.Graph, w.Opts) })
		name = "simulate/batched/" + w.Name
		ns = float64(batched.Nanoseconds())
		r.Add(name, rep, ns)
		opts.progress(name, ns)

		if !reflect.DeepEqual(scalarRes, batchedRes) {
			return fmt.Errorf("perf: batched and scalar SimulateSpMV disagree on %s", w.Name)
		}
		r.AddSpeedup("simulate/"+w.Name, float64(scalar.Nanoseconds())/float64(batched.Nanoseconds()))
		totalScalar += float64(scalar.Nanoseconds())
		totalBatched += float64(batched.Nanoseconds())
	}
	// The headline number: the whole-grid wall-time ratio. Less noisy than
	// any per-dataset ratio (noise on one workload is diluted by the sum),
	// so it is the most stable speedup for the bench gate to protect.
	if totalBatched > 0 {
		r.AddSpeedup("simulate/overall", totalScalar/totalBatched)
	}
	return nil
}
