package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain reads the -out result files in two directories, A (the
// base) and B (the change), and prints for every workload and metric each
// side's median and quartiles, whether the medians agree within the
// metric's bound taken either way round, and the pair-win count. The i-th
// file of A (in name order) pairs with the i-th file of B of the same
// workload. It exits 1 when an end-to-end median of B is worse than A's by
// more than its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: localitybench compare DIR_A DIR_B")
		return 2
	}
	a, err := readResults(args[0])
	var b map[string]map[string][]float64
	if err == nil {
		b, err = readResults(args[1])
	}
	if err != nil {
		fmt.Fprintln(stderr, "localitybench compare:", err)
		return 1
	}
	if !compareSets(stdout, a, b) {
		return 1
	}
	return 0
}

// readResults loads every *.json result in dir into workload → metric →
// values, in file name order.
func readResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a result file", f)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	deltaPct float64 // B's median against A's, in percent
	// agree: the medians are within the bound of each other, taken either
	// way round, so neither side is worse than the other by more than it
	// (always true without a bound).
	agree bool
	worse bool // B worse than A by more than the bound
	wins  int  // pairs in which B is better
	pairs int
	gain  bool // B wins 9 in 10 pairs and the medians differ by more than A's spread
}

// judge compares a and b for metric m.
func judge(m metric, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	v := verdict{agree: true, pairs: min(len(a), len(b))}
	if ma != 0 {
		v.deltaPct = 100 * (mb - ma) / math.Abs(ma)
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == higher {
			return x > y
		}
		return x < y
	}
	if m.Bound > 0 {
		dev := math.Abs(mb - ma)
		v.agree = dev <= m.Bound*math.Min(math.Abs(ma), math.Abs(mb))
		v.worse = better(ma, mb) && dev > m.Bound*math.Abs(ma)
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	q1, _, q3 := quartiles(a)
	v.gain = v.pairs > 0 && 10*v.wins >= 9*v.pairs && math.Abs(mb-ma) > q3-q1
	return v
}

// compareSets prints the comparison table and reports whether every
// end-to-end metric of B is within its bound of A.
func compareSets(w io.Writer, a, b map[string]map[string][]float64) bool {
	ok := true
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		fmt.Fprintf(w, "%s (A %d runs, B %d runs)\n", wl.name, runs(ma), runs(mb))
		fmt.Fprintf(w, "  %-30s %-9s %12s %25s %12s %25s %8s %6s %7s %s\n",
			"metric", "unit", "A median", "A [q1, q3] spread", "B median", "B [q1, q3] spread", "delta", "bound", "wins", "verdict")
		for _, tab := range [][]metric{endToEnd, perLayer} {
			for _, m := range tab {
				xa, xb := ma[m.Name], mb[m.Name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := judge(m, xa, xb)
				var words []string
				switch {
				case m.Bound == 0:
				case v.worse:
					words = append(words, "WORSE")
					ok = false
				case v.agree:
					words = append(words, "agree")
				default: // apart by more than the bound, but B is not the worse
					words = append(words, "differ")
				}
				if v.gain {
					words = append(words, "gain")
				}
				word := strings.Join(words, " ")
				if word == "" {
					word = "-"
				}
				bound := "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				}
				fmt.Fprintf(w, "  %-30s %-9s %12.6g %25s %12.6g %25s %+7.1f%% %6s %3d/%-3d %s\n",
					m.Name, m.Unit, median(xa), spread(xa), median(xb), spread(xb), v.deltaPct, bound, v.wins, v.pairs, word)
			}
		}
	}
	return ok
}

// spread formats the quartiles of xs and their distance as a share of the
// median, the run-to-run spread a bound is judged against.
func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	pct := 0.0
	if q2 != 0 {
		pct = 100 * (q3 - q1) / math.Abs(q2)
	}
	return fmt.Sprintf("[%.4g, %.4g] %.1f%%", q1, q3, pct)
}

// runs is the number of runs behind a workload's metrics.
func runs(m map[string][]float64) int {
	n := 0
	for _, xs := range m {
		n = max(n, len(xs))
	}
	return n
}
