// Command localitybench is the repository's outside-in benchmark. It runs
// one workload per process, times calls into the public functions of
// gen, graph, reorder, trace, cachesim, core, spmv and serve, checks every
// output, and prints each metric by name with its unit. The last line of
// its standard output is the result as one JSON object.
//
//	localitybench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE]
//	localitybench compare DIR_A DIR_B
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain runs one workload and returns the exit code: 0 for a correct
// run, 1 for a failed or incorrect one, 2 for a usage error.
func runMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("localitybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed hashed into every generator seed and the serve request sequence")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 adds the traced phase and the layer-alone passes and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full result record as JSON to this file")
	spans := fs.String("spans", "", "with -trace 1, write the spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(*workload); !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "usage: localitybench -workload {%s} [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans FILE]\n", strings.Join(names, "|"))
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}

	res, tr, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "localitybench:", err)
		return 1
	}
	if *spans != "" && tr != nil {
		if err := tr.writeFile(*spans); err != nil {
			fmt.Fprintln(stderr, "localitybench: spans:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "localitybench: out:", err)
			return 1
		}
	}
	printResult(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "localitybench: check failed:", e)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric on its own line, then the facts needed
// to read them, then the result line.
func printResult(w io.Writer, res *result) {
	tab := endToEnd
	if res.Trace {
		tab = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d gomaxprocs %g\n", res.Workload, res.Seed, res.Info["gomaxprocs"])
	if res.Trace && res.Info["gomaxprocs"] == 1 {
		fmt.Fprintln(w, "note: GOMAXPROCS is 1, so Workers > 1 falls through to the serial path")
	}
	for _, m := range tab {
		fmt.Fprintf(w, "%-30s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "one ref is %.6g ms: the reference kernel's median time after each of %g windows\n",
		res.Info["ref_ms"], res.Info["windows"])
	fmt.Fprintf(w, "in host time: set-up %.6g s; over %g samples, median latency %.6g ms, p%g latency %.6g ms, throughput %.6g Medge/s\n",
		res.Info["setup_host_s"], res.Info["latency_samples"], res.Info["latency_median_ms"],
		res.Info["latency_tail_pct"], res.Info["latency_tail_ms"], res.Info["medges_per_s"])
	fmt.Fprintf(w, "attempted %d failed %d fail_frac %g\n", res.Attempted, res.Failed, res.Info["fail_frac"])
	data, _ := json.Marshal(res.line()) // plain numbers, strings and bools: cannot fail
	fmt.Fprintln(w, string(data))
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
