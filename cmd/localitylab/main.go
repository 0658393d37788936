// Command localitylab is the command-line front end of the locality
// analysis toolkit. It regenerates every table and figure of the paper
// (experiment subcommand), and exposes the building blocks: synthetic
// dataset generation, graph reordering, metric computation and SpMV
// traversal timing.
//
// Usage:
//
//	localitylab gen      -kind social|web|er|ba -out g.seg [-scale N] [-seed S]
//	localitylab reorder  -graph g.seg -alg sb|sb++|go|ro|... -out relabeled.seg
//	localitylab metrics  -graph g.seg [-aid] [-asym] [-decomp] [-coverage] [-types]
//	localitylab spmv     -graph g.seg [-threads N] [-iters K] [-dir pull|push|pushread]
//	localitylab simulate -graph g.seg [-threads N] [-ecs]
//	localitylab experiment <id>|all [-size tiny|standard]
//
// Every graph file (-graph, -graphs, gen -out, reorder -out) is a
// segmented compressed container (internal/graph/segcsr).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/spmv"
	"graphlocality/internal/trace"
	"graphlocality/internal/viz"
)

// Exit codes: 0 success, 1 stage or runtime failure, 2 usage error,
// 130 interrupted (SIGINT caught, orderly checkpoint-then-exit).
const (
	exitFailure   = 1
	exitUsage     = 2
	exitInterrupt = 130
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	if err := armFailpointsFromEnv(); err != nil {
		os.Exit(exitCode(err))
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "reorder":
		err = cmdReorder(os.Args[2:])
	case "algorithms":
		err = cmdAlgorithms(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "spmv":
		err = cmdSpMV(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "analytics":
		err = cmdAnalytics(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "spy":
		err = cmdSpy(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "ihtl":
		err = cmdIHTL(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "obs":
		err = cmdObs(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "version", "-version", "--version":
		err = cmdVersion(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "localitylab: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(exitUsage)
	}
	os.Exit(exitCode(err))
}

// exitCode maps an error to the process exit status, printing the
// diagnostic: usage errors exit 2, cancellation (SIGINT) exits 130, and
// stage failures print the failing stage name and exit 1.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ue *usageError
	var se *runctl.StageError
	switch {
	case errors.As(err, &ue):
		fmt.Fprintln(os.Stderr, "localitylab:", err)
		return exitUsage
	case errors.Is(err, context.Canceled), errors.Is(err, runctl.ErrCanceled):
		fmt.Fprintln(os.Stderr, "localitylab: interrupted; checkpointed work is preserved")
		return exitInterrupt
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "localitylab: run deadline exceeded; checkpointed work is preserved")
		return exitFailure
	case errors.As(err, &se):
		// se.Error() leads with the failing stage name.
		fmt.Fprintf(os.Stderr, "localitylab: %v (after %d attempt(s))\n", se, se.Attempts)
		return exitFailure
	default:
		fmt.Fprintln(os.Stderr, "localitylab:", err)
		return exitFailure
	}
}

// usageError marks bad invocations (missing/invalid arguments) so main can
// exit 2 rather than 1.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

func usage() {
	fmt.Fprintln(os.Stderr, `localitylab <command> [flags]

Commands:
  gen         generate a synthetic dataset (social, web, er, ba)
  reorder     apply a reordering algorithm to a graph file; -alg takes a
              spec like ro, go:window=7 or brew:detect=louvain,hub=hs
  algorithms  list registered reordering algorithms (name, class, options)
  metrics     compute locality metrics of a graph
  spmv        run and time parallel SpMV traversals
  simulate    run the trace-based cache/TLB simulation
  analytics   run graph analytics (bfs, cc, thrifty, sssp, hits, lp, pagerank)
  advise      classify a dataset's structure and recommend direction + RA
  spy         render an adjacency-matrix density plot (ASCII or PGM)
  trace       record a traversal's memory-access trace to a file
  replay      replay a recorded trace against a cache configuration
  ihtl        build iHTL flipped blocks and compare misses vs plain pull
  experiment  regenerate a paper table, figure or study: experiment <id>
              or experiment all (run it without an id to list the ids)
  compress    measure the segmented compressed-CSR footprint (bytes/edge)
              of a graph, per reordering with -algs; -out rewrites the
              graph with -segverts segments and reloads it to verify
  obs         inspect run manifests: obs show <m.json>, obs diff <a> <b>
  store       maintain a -cachedir artifact store: store stat|verify|gc -dir D
  bench       performance harness: bench parallel (experiment grid serial vs
              parallel -> BENCH_parallel.json), bench pipeline (batched vs
              scalar simulation stack -> BENCH_pipeline.json), bench multicore
              (boba and simulate scaling per worker count, every row
              cross-checked bit-exact -> BENCH_multicore.json), bench diff
              [-tolerance 1.5] <baseline> <current> (regression gate)
  serve       run localityd, the reorder/simulate daemon (admission control,
              deadlines, load shedding, graceful drain on SIGTERM)
  loadtest    fire a mixed workload at a running daemon -> BENCH_serve.json
  chaos       seeded fault-injection campaign: chaos run -seed S -n N runs N
              distinct disk-fault/crash schedules against store, race,
              checkpoint, serve and segwrite workloads and checks end-to-end
              invariants; chaos replay -seed S -index I reproduces one
  version     print the binary version (also: -version)

Environment:
  LOCALITYLAB_FAILPOINTS  arm runctl stage failpoints at startup
                          (name=mode[*times][~dur], mode panic|error|
                          transient|hang), e.g.
                          "serve.job.run=panic*2,serve.store.get=transient*1";
                          file faults go through chaos run|replay instead`)
}

// loadGraph reads a segmented graph file. A file that fails verification
// is reported as *store.IntegrityError and, if it is a regular file,
// quarantined to <path>.corrupt (store.Quarantine). An I/O error, such as
// EISDIR for a directory, is returned as it is, and nothing is moved.
func loadGraph(path string) (*graph.Graph, error) {
	return graph.ReadSegmented(path)
}

// saveGraph writes the graph as a segmented container through the atomic
// commit protocol (temp + sync + rename), so an interrupted run can never
// leave a torn file where a good one stood.
func saveGraph(g *graph.Graph, path string) error {
	_, err := graph.WriteSegmented(g, path, graph.SegmentedOptions{})
	return err
}

func cmdSpy(args []string) error {
	fs := flag.NewFlagSet("spy", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	res := fs.Int("res", 48, "plot resolution (buckets per side)")
	pgm := fs.String("pgm", "", "also write a PGM image to this path")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	p := viz.Spy(g, *res)
	if err := p.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("diagonal mass (±2 buckets): %.1f%%\n", 100*p.DiagonalMass(2))
	if *pgm != "" {
		f, err := os.Create(*pgm)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := p.WritePGM(f); err != nil {
			return err
		}
		fmt.Println("wrote", *pgm)
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	a := core.Advise(g)
	fmt.Println(g)
	fmt.Println(a)
	fmt.Printf("\nrecommendation: traverse in %s direction", a.Direction)
	if a.Reorder == "none" {
		fmt.Println("; reordering is unlikely to help this structure")
	} else {
		fmt.Printf("; reorder with %s first\n", a.Reorder)
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "social", "dataset kind: "+strings.Join(gen.Kinds, ", "))
	scale := fs.Int("scale", 14, "log2 of the vertex count")
	edgeFac := fs.Int("edgefac", 12, "edges per vertex")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("out", "", "output graph file (segmented); empty prints a summary")
	fs.Parse(args)

	g, err := gen.Generate(*kind, *scale, *edgeFac, *seed)
	if err != nil {
		return usagef("%v", err)
	}
	fmt.Println(g)
	if *out == "" {
		return nil
	}
	return saveGraph(g, *out)
}

func cmdReorder(args []string) error {
	fs := flag.NewFlagSet("reorder", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	algSpec := fs.String("alg", "ro", "algorithm spec: name[:key=value,...] (e.g. go:window=7), names: "+strings.Join(reorder.List(), ", "))
	out := fs.String("out", "", "output relabeled graph; empty skips writing")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	// -alg takes a full spec ("ro", "go:window=7", "brew:detect=lp"). A
	// malformed spec is a usage error; a spec the registry rejects is a
	// runtime failure like any other.
	alg, err := reorder.New(*algSpec)
	var specErr *reorder.SpecError
	if errors.As(err, &specErr) {
		return usagef("%v", err)
	}
	if err != nil {
		return err
	}
	// Run the RA as a controlled stage so a panic inside it surfaces as a
	// *runctl.StageError naming the stage (exit 1) instead of crashing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var res reorder.Result
	err = runctl.New(ctx, runctl.Config{}).Run("reorder/"+alg.Name(), func(ctx context.Context) error {
		r, err := reorder.RunContext(ctx, alg, g)
		res = r
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: preprocessing %.3fs, %.1f MB allocated\n",
		res.Algorithm, res.Elapsed.Seconds(), float64(res.AllocBytes)/1e6)
	if *out == "" {
		return nil
	}
	return saveGraph(g.Relabel(res.Perm), *out)
}

// cmdAlgorithms prints the registry's metadata: one row per algorithm
// with its cost class, aliases and accepted spec keys.
func cmdAlgorithms(args []string) error {
	fs := flag.NewFlagSet("algorithms", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of the table")
	fs.Parse(args)
	infos := reorder.Registrations()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(infos)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tCLASS\tALIASES\tOPTIONS\tDESCRIPTION")
	for _, info := range infos {
		opts := strings.Join(info.Accepts, ",")
		if opts == "" {
			opts = "-"
		}
		aliases := strings.Join(info.Aliases, ",")
		if aliases == "" {
			aliases = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n",
			info.Name, info.Class, aliases, opts, info.Description)
	}
	return w.Flush()
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	aid := fs.Bool("aid", false, "AID degree distribution")
	asym := fs.Bool("asym", false, "asymmetricity degree distribution")
	decomp := fs.Bool("decomp", false, "degree range decomposition")
	coverage := fs.Bool("coverage", false, "hub coverage curve")
	types := fs.Bool("types", false, "locality type classification")
	mrc := fs.Bool("mrc", false, "LRU miss-ratio curve from reuse distances")
	compress := fs.Bool("compress", false, "gap+varint adjacency compression ratio")
	util := fs.Bool("utilization", false, "cache-line word utilization")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	fmt.Println(g)
	fmt.Printf("mean AID %.1f, average gap %.1f, reciprocity %.3f\n",
		core.MeanAID(g), core.AverageGap(g), core.Reciprocity(g))
	if *aid {
		s := core.AIDByDegree(g)
		fmt.Println("AID by in-degree:")
		for _, i := range s.NonEmpty() {
			fmt.Printf("  %-12s %.1f\n", s.Bins.Label(i), s.Mean(i))
		}
	}
	if *asym {
		s := core.AsymmetricityByDegree(g)
		fmt.Println("Asymmetricity (%) by in-degree:")
		for _, i := range s.NonEmpty() {
			fmt.Printf("  %-12s %.1f\n", s.Bins.Label(i), s.Mean(i))
		}
	}
	if *decomp {
		m := core.DegreeRangeDecomposition(g)
		fmt.Println("Degree range decomposition (% of in-edges by source class):")
		for i, row := range m.Pct {
			if m.EdgeCount[i] == 0 {
				continue
			}
			fmt.Printf("  dst %-10s", m.Classes[i])
			for _, p := range row {
				fmt.Printf(" %5.1f", p)
			}
			fmt.Println()
		}
	}
	if *coverage {
		cv := core.HubCoverage(g, core.DefaultCoveragePoints(g.NumVertices()))
		fmt.Println("Hub coverage (% of edges):")
		for i, h := range cv.H {
			fmt.Printf("  H=%-8d in-hubs %5.1f  out-hubs %5.1f\n", h, cv.InHubPct[i], cv.OutHubPct[i])
		}
	}
	if *types {
		p := core.ClassifyLocalityTypes(g, 64, 1, 1024)
		fmt.Printf("Locality types of %d random accesses: I=%d II=%d III=%d cold=%d\n",
			p.Total, p.TypeI, p.TypeII, p.TypeIII, p.Cold)
		pp := core.ClassifyLocalityTypes(g, 64, 4, 1024)
		fmt.Printf("Parallel (4T): I=%d II=%d III=%d IV=%d V=%d\n",
			pp.TypeI, pp.TypeII, pp.TypeIII, pp.TypeIV, pp.TypeV)
	}
	if *mrc {
		prof := core.ReuseDistances(g, trace.Pull, 64)
		curve := prof.MRC()
		fmt.Println("LRU miss-ratio curve (cache lines -> miss ratio):")
		for i, sz := range curve.Lines {
			fmt.Printf("  %-10d %.3f\n", sz, curve.MissRatio[i])
		}
	}
	if *compress {
		fmt.Printf("gap+varint adjacency: %.0f KB (ratio %.2fx over raw 4B/edge)\n",
			float64(core.CompressedAdjacencyBytes(g))/1024, core.CompressionRatio(g))
	}
	if *util {
		u, err := core.LineUtilization(g, cachesim.Config{})
		if err != nil {
			return err
		}
		fmt.Printf("cache-line utilization: %.2f of 8 words per fetched line (%.0f%%)\n",
			u.MeanWords(), 100*u.MeanFraction())
	}
	return nil
}

func cmdSpMV(args []string) error {
	fs := flag.NewFlagSet("spmv", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	threads := fs.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	iters := fs.Int("iters", 5, "iterations to run")
	dirName := fs.String("dir", "pull", "traversal direction: pull, push, pushread")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	dir, err := trace.ParseDirection(*dirName)
	if err != nil {
		return usagef("%v", err)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	e := spmv.New(g, *threads)
	n := g.NumVertices()
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = 1
	}
	for it := 0; it < *iters; it++ {
		var st spmv.Stats
		switch dir {
		case trace.Pull:
			st = e.Pull(src, dst)
		case trace.PushRead:
			st = e.PushRead(src, dst)
		case trace.Push:
			for i := range dst {
				dst[i] = 0
			}
			st = e.Push(src, dst)
		}
		fmt.Printf("iter %d: %7.2f ms, idle %4.1f%%, steals %d (threads %d)\n",
			it, float64(st.Elapsed.Microseconds())/1000, st.IdlePct, st.Steals, st.Threads)
		src, dst = dst, src
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	threads := fs.Int("threads", 4, "emulated threads for interleaved simulation")
	dirName := fs.String("dir", "pull", "traversal direction: pull, push, pushread")
	ecs := fs.Bool("ecs", false, "measure effective cache size")
	fraction := fs.Float64("fraction", cachesim.DefaultVertexCacheFraction,
		"vertex-data fraction held by the scaled L3")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	dir, err := trace.ParseDirection(*dirName)
	if err != nil {
		return usagef("%v", err)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	opts := core.PaperOptions(g, dir)
	opts.Threads = *threads
	opts.Cache = cachesim.ScaledL3(g.NumVertices(), *fraction)
	if *ecs {
		opts.SnapshotEvery = core.ECSInterval(g)
	}
	res := core.SimulateSpMV(g, opts)
	cfg := opts.Cache
	fmt.Printf("cache %s: %d sets x %d ways x %dB (%d KiB), policy %s\n",
		cfg.Name, cfg.Sets, cfg.Ways, cfg.LineSize, cfg.SizeBytes()/1024, cfg.Policy)
	fmt.Printf("accesses %d, misses %d (%.2f%%), writebacks %d\n",
		res.Cache.Accesses, res.Cache.Misses, 100*res.Cache.MissRate(), res.Cache.Writebacks)
	fmt.Printf("DTLB: %d entries, misses %d (%.3f%%)\n",
		opts.TLB.Entries, res.TLB.Misses, 100*res.TLB.MissRate())
	if *ecs {
		fmt.Printf("effective cache size: %.1f%% over %d snapshots\n", res.ECS, res.Snapshots)
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	algsFlag := fs.String("algs", "", "comma-separated algorithm specs (e.g. initial,go:window=7,brew) replacing the paper line-up")
	csvDir := fs.String("csv", "", "also write machine-readable CSV files into this directory")
	graphsFlag := fs.String("graphs", "", "comma-separated segmented graph files to use instead of the synthetic suite")
	cacheDir := fs.String("cachedir", "", "checkpoint computed permutations into this directory (write-through)")
	resume := fs.Bool("resume", false, "reload permutations checkpointed in -cachedir instead of recomputing")
	stageTimeout := fs.Duration("stage-timeout", 0, "per-stage deadline; an overrunning RA degrades to Initial (0 = none)")
	totalTimeout := fs.Duration("timeout", 0, "whole-run deadline (0 = none)")
	heartbeat := fs.Duration("heartbeat", 0, "emit stage progress heartbeats to stderr at this interval (0 = off)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"grid cells to run concurrently (1 = serial, byte-identical to the pre-scheduler output)")
	manifestPath := fs.String("manifest", "", "write a JSON run manifest (stages, counters, timings) to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path at exit")
	httpProf := fs.String("httpprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	// The experiment id is the first non-flag argument.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id = args[0]
		args = args[1:]
	}
	fs.Parse(args)
	var ids string
	for _, e := range expt.Experiments {
		ids += e.ID + ", "
	}
	ids += "all"
	if id == "" {
		return usagef("experiment id required (%s)", ids)
	}
	runs := expt.Experiments
	if id != "all" {
		e, ok := expt.LookupExperiment(id)
		if !ok {
			return usagef("unknown experiment %q (%s)", id, ids)
		}
		runs = []expt.Experiment{e}
	}
	if *resume && *cacheDir == "" {
		return usagef("-resume requires -cachedir")
	}
	size, err := expt.ParseSize(*sizeName)
	if err != nil {
		return usagef("-size: %v", err)
	}

	// SIGINT cancels the root context: in-flight stages notice within one
	// poll interval, completed permutations are already checkpointed
	// write-through, and main exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *totalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *totalTimeout)
		defer cancel()
	}
	prof, err := startProfiler(*cpuProfile, *memProfile, *httpProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "localitylab: profiling: %v\n", err)
		}
	}()

	// One registry collects the whole run: the controller records stage
	// spans and retry/panic counters into it, the session attaches work
	// facts (events, bytes) to the same spans.
	reg := obs.NewRegistry()
	started := time.Now()

	cfg := runctl.Config{
		StageTimeout: *stageTimeout,
		Heartbeat:    *heartbeat,
		Metrics:      reg,
	}
	if *heartbeat > 0 {
		cfg.OnEvent = func(ev runctl.Event) {
			switch ev.Kind {
			case runctl.EventHeartbeat:
				fmt.Fprintf(os.Stderr, "localitylab: stage %s running for %v\n",
					ev.Stage, ev.Elapsed.Round(time.Millisecond))
			case runctl.EventRetry:
				fmt.Fprintf(os.Stderr, "localitylab: stage %s attempt %d failed (%v); retrying\n",
					ev.Stage, ev.Attempt, ev.Err)
			}
		}
	}

	s := expt.NewSession()
	s.Ctrl = runctl.New(ctx, cfg)
	s.CacheDir = *cacheDir
	s.Resume = *resume
	s.Parallel = *parallel
	s.Obs = reg
	ds := expt.Suite(size)
	if *graphsFlag != "" {
		ds = nil
		for _, path := range strings.Split(*graphsFlag, ",") {
			d, err := datasetFromFile(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
	}
	algs := expt.StandardAlgorithms()
	if *algsFlag != "" {
		algs, err = expt.AlgorithmsFromSpecs(strings.Split(*algsFlag, ","))
		if err != nil {
			return usagef("-algs: %v", err)
		}
	}

	for _, e := range runs {
		out, err := e.Run(s, ds, algs)
		if err != nil {
			return err
		}
		fmt.Print(out.Text)
		for name, data := range out.CSV {
			if *csvDir == "" {
				break
			}
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvDir, name), data, 0o644); err != nil {
				return err
			}
		}
		if id == "all" {
			fmt.Println()
		}
		if ctx.Err() != nil {
			break
		}
	}

	for stage, reason := range s.DegradedStages() {
		fmt.Fprintf(os.Stderr, "localitylab: stage %s degraded to Initial: %s\n", stage, reason)
	}
	if *manifestPath != "" {
		m := reg.Manifest(obs.Meta{
			Tool:       "localitylab",
			Command:    "experiment " + id,
			StartedAt:  started.UTC().Format(time.RFC3339),
			Parallel:   *parallel,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			WallMS:     float64(time.Since(started).Microseconds()) / 1000,
		})
		if err := obs.WriteManifestFile(*manifestPath, m); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "localitylab: wrote run manifest %s\n", *manifestPath)
	}
	// A dead root context (SIGINT or -timeout) trumps the partial output:
	// report the interruption so main exits 130.
	return ctx.Err()
}

// cmdBench dispatches the benchmark modes: "parallel" (the default, and
// assumed when the first argument is a flag, for compatibility) compares
// the experiment scheduler's serial and parallel passes; "pipeline" times
// the simulation stack itself (see bench.go); "multicore" sweeps the boba
// parallel ordering and SimulateSpMV across worker counts; "diff" gates a current report
// against a committed baseline.
func cmdBench(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "pipeline":
			return cmdBenchPipeline(args[1:])
		case "multicore":
			return cmdBenchMulticore(args[1:])
		case "diff":
			return cmdBenchDiff(args[1:])
		case "parallel":
			args = args[1:]
		}
	}
	return cmdBenchParallel(args)
}

// datasetFromFile wraps a segmented graph file as an experiment dataset,
// classifying its structure with the advisor so contrast-based
// experiments know which side it belongs to.
func datasetFromFile(path string) (expt.Dataset, error) {
	g, err := loadGraph(path)
	if err != nil {
		return expt.Dataset{}, err
	}
	kind := expt.Uniform
	switch core.Advise(g).Class {
	case core.ClassSocial:
		kind = expt.SocialNetwork
	case core.ClassWeb:
		kind = expt.WebGraph
	}
	name := filepath.Base(path)
	return expt.NewDataset(name, kind, "(file: "+path+")", g), nil
}
