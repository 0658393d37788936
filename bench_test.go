package graphlocality_test

// One benchmark per experiment of the paper's evaluation: each entry of
// expt.Experiments runs on its dataset selection of the Standard suite
// and prints its report once, so `go test -bench=Experiments` both
// measures and regenerates the evaluation. See EXPERIMENTS.md for the
// recorded outputs and the paper-vs-measured comparison.

import (
	"fmt"
	"sync"
	"testing"

	"graphlocality/internal/expt"
)

// session returns a fresh memoizing session over the Standard suite for
// the ablation benchmarks, which build their graphs before timing starts.
func session() (*expt.Session, []expt.Dataset) {
	return expt.NewSession(), expt.Suite(expt.Standard)
}

// printOnce prints a rendered report on the first benchmark iteration only.
var printed sync.Map

func printOnce(key, out string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(out)
	}
}

// BenchmarkExperiments times each experiment on its own: every
// sub-benchmark runs on a fresh memoizing session, so its figure includes
// the graph builds, reorderings and simulations the experiment needs
// rather than lookups of cells an earlier entry computed.
func BenchmarkExperiments(b *testing.B) {
	ds := expt.Suite(expt.Standard)
	algs := expt.StandardAlgorithms()
	for _, e := range expt.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(expt.NewSession(), ds, algs)
				if err != nil {
					b.Fatal(err)
				}
				printOnce(e.ID, out.Text)
			}
		})
	}
}
