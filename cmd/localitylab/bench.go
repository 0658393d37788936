package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"graphlocality/internal/expt"
	"graphlocality/internal/perf"
	"graphlocality/internal/runctl"
)

// cmdBenchParallel times a representative experiment grid twice — serial
// (-parallel 1) and parallel — and writes both times and their ratio as a
// perf.Report. Each run uses a fresh Session so the parallel pass cannot
// reuse memoized results from the serial pass.
func cmdBenchParallel(args []string) error {
	fs := flag.NewFlagSet("bench parallel", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	out := fs.String("out", "BENCH_parallel.json", "output JSON path")
	defPar := runtime.NumCPU()
	if defPar < 2 {
		// A single-core machine cannot show a wall-clock win; still run the
		// comparison so the report captures the scheduler's overhead there.
		defPar = 2
	}
	par := fs.Int("parallel", defPar, "worker count for the parallel pass")
	fs.Parse(args)
	size, err := expt.ParseSize(*sizeName)
	if err != nil {
		return usagef("-size: %v", err)
	}
	if *par < 2 {
		return usagef("-parallel must be at least 2 to compare against the serial pass")
	}

	runGrid := func(parallel int) (time.Duration, error) {
		s := expt.NewSession()
		s.Ctrl = runctl.New(context.Background(), runctl.Config{})
		s.Parallel = parallel
		ds := expt.Suite(size)
		algs := expt.StandardAlgorithms()
		start := time.Now()
		for _, id := range expt.ParallelBenchGrid {
			e, _ := expt.LookupExperiment(id)
			if _, err := e.Run(s, ds, algs); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start)
		if len(s.DegradedStages()) != 0 {
			return elapsed, fmt.Errorf("bench run degraded stages: %v", s.DegradedStages())
		}
		return elapsed, nil
	}

	fmt.Fprintf(os.Stderr, "localitylab: bench serial pass (-parallel 1, size %s)...\n", *sizeName)
	serial, err := runGrid(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "localitylab: serial %v; parallel pass (-parallel %d)...\n",
		serial.Round(time.Millisecond), *par)
	parallel, err := runGrid(*par)
	if err != nil {
		return err
	}

	speedup := serial.Seconds() / parallel.Seconds()
	report := perf.Report{Schema: perf.SchemaVersion, Suite: *sizeName, GoMaxProcs: runtime.GOMAXPROCS(0)}
	report.Add("parallel/grid/serial", 1, float64(serial.Nanoseconds()))
	report.Add(fmt.Sprintf("parallel/grid/w=%d", *par), 1, float64(parallel.Nanoseconds()))
	report.AddSpeedup("parallel/grid", speedup)
	if err := perf.WriteFile(*out, report); err != nil {
		return err
	}
	fmt.Printf("serial %.2fs, parallel %.2fs (%d workers): %.2fx speedup -> %s\n",
		serial.Seconds(), parallel.Seconds(), *par, speedup, *out)
	return nil
}

// cmdBenchPipeline times the simulation stack itself: cachesim and trace
// microbenchmarks, each suite graph's build, batched-vs-scalar
// SimulateSpMV macro runs over the experiment dataset suite, and GOrder
// (exact and hub-capped) over the suite shrunk 16-fold, written as a
// perf.Report. The committed
// BENCH_pipeline.json is the baseline `bench diff` gates CI against.
func cmdBenchPipeline(args []string) error {
	fs := flag.NewFlagSet("bench pipeline", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	out := fs.String("out", "BENCH_pipeline.json", "output JSON path")
	repeats := fs.Int("repeats", 3, "timing repetitions per benchmark (minimum is reported)")
	fs.Parse(args)
	size, err := expt.ParseSize(*sizeName)
	if err != nil {
		return usagef("-size: %v", err)
	}

	var workloads []perf.Workload
	for _, d := range expt.Suite(size) {
		workloads = append(workloads, perf.Workload{Name: d.Name, Graph: d.Build(), Build: d.Build})
	}
	opts := perf.Options{
		Repeats: *repeats,
		Suite:   *sizeName,
		Progress: func(name string, ns float64) {
			fmt.Fprintf(os.Stderr, "localitylab: bench %-28s %12.0f ns/op\n", name, ns)
		},
	}
	report, err := perf.Pipeline(workloads, opts)
	if err != nil {
		return err
	}
	if err := perf.WriteFile(*out, report); err != nil {
		return err
	}
	for _, s := range report.Speedups {
		fmt.Printf("%-28s %6.2fx\n", s.Name, s.Speedup)
	}
	fmt.Printf("min speedup %.2fx -> %s\n", report.MinSpeedup(), *out)
	return nil
}

// cmdBenchMulticore sweeps the boba parallel ordering across worker
// counts, timing each under a matching GOMAXPROCS and cross-checking every
// row against the serial permutation, and SimulateSpMV across the same
// GOMAXPROCS values, cross-checking every row against the scalar
// reference, so the report is simultaneously a scaling measurement and a
// bit-exactness proof. The committed
// BENCH_multicore.json is the baseline `bench diff` gates scaling erosion
// against on multicore runners.
func cmdBenchMulticore(args []string) error {
	fs := flag.NewFlagSet("bench multicore", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	out := fs.String("out", "BENCH_multicore.json", "output JSON path")
	repeats := fs.Int("repeats", 3, "timing repetitions per benchmark (minimum is reported)")
	workersFlag := fs.String("workers", "", "comma-separated worker counts (default: 1,2 then doubling to NumCPU)")
	fs.Parse(args)
	size, err := expt.ParseSize(*sizeName)
	if err != nil {
		return usagef("-size: %v", err)
	}
	counts := perf.DefaultWorkerCounts()
	if *workersFlag != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*workersFlag, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 1 {
				return usagef("bench multicore: bad -workers entry %q", f)
			}
			counts = append(counts, w)
		}
	}

	var workloads []perf.Workload
	for _, d := range expt.Suite(size) {
		workloads = append(workloads, perf.Workload{Name: d.Name, Graph: d.Build()})
	}
	report := perf.Report{Schema: perf.SchemaVersion, Suite: *sizeName, GoMaxProcs: runtime.NumCPU()}
	opts := perf.Options{
		Repeats: *repeats,
		Suite:   *sizeName,
		Progress: func(name string, ns float64) {
			fmt.Fprintf(os.Stderr, "localitylab: bench %-36s %12.0f ns/op\n", name, ns)
		},
	}
	if err := perf.Multicore(&report, workloads, counts, opts); err != nil {
		return err
	}
	if err := perf.WriteFile(*out, report); err != nil {
		return err
	}
	for _, s := range report.Speedups {
		fmt.Printf("%-36s %6.2fx\n", s.Name, s.Speedup)
	}
	fmt.Printf("min speedup %.2fx (NumCPU %d) -> %s\n", report.MinSpeedup(), runtime.NumCPU(), *out)
	return nil
}

// cmdBenchDiff compares a current bench report against a committed
// baseline under a multiplicative tolerance and fails (exit 1) on any
// regression — the CI gate for the batched fast path.
func cmdBenchDiff(args []string) error {
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	tolerance := fs.Float64("tolerance", 1.5, "allowed slowdown/erosion factor (>= 1)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return usagef("bench diff needs two report paths: baseline current")
	}
	baseline, err := perf.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	current, err := perf.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	regs, err := perf.Diff(baseline, current, *tolerance)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Printf("bench diff: %d benchmarks, %d speedups within %.2fx of %s\n",
			len(baseline.Benchmarks), len(baseline.Speedups), *tolerance, fs.Arg(0))
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "localitylab: "+r.String())
	}
	return fmt.Errorf("bench diff: %d regression(s) beyond %.2fx tolerance", len(regs), *tolerance)
}
