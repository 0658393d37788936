package main

import (
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// dataset is one generator of expt.Suite(expt.Standard) with its
// parameters spelled out, so the benchmark seed can be mixed into the
// generator seed (expt keeps them inside closures).
type dataset struct {
	name  string
	kind  string // social, web or er
	logV  int    // log2 of the vertex count
	deg   int    // edge factor (social) or mean out-degree (web)
	edges int    // edge count (er)
	seed  uint64 // the suite's generator seed
}

// standard mirrors expt.Suite(expt.Standard); TestStandardMatchesSuite
// holds the two together.
var standard = []dataset{
	{name: "TwtrS", kind: "social", logV: 15, deg: 16, seed: 42},
	{name: "FrndS", kind: "social", logV: 16, deg: 12, seed: 7},
	{name: "SKS", kind: "web", logV: 15, deg: 16, seed: 9},
	{name: "WebS", kind: "web", logV: 16, deg: 10, seed: 3},
	{name: "UKS", kind: "web", logV: 17, deg: 8, seed: 5},
	{name: "UnifS", kind: "er", logV: 15, edges: 500000, seed: 1},
}

// input is a generated graph with the name of its dataset.
type input struct {
	name string
	g    *graph.Graph
}

// build generates d shrunk by 2^shift vertices (and, for er, edges) from
// generator seed genSeed. The span names the gen function called.
func (d dataset) build(shift int, genSeed uint64, tr *tracer, parent int) *graph.Graph {
	var g *graph.Graph
	n := d.logV - shift
	switch d.kind {
	case "social":
		tr.call("gen.SocialNetwork", parent, func() { g = gen.SocialNetwork(n, d.deg, genSeed) })
	case "web":
		tr.call("gen.WebGraph", parent, func() { g = gen.WebGraph(gen.DefaultWebGraph(1<<n, d.deg, genSeed)) })
	default:
		tr.call("gen.ErdosRenyi", parent, func() { g = gen.ErdosRenyi(1<<n, d.edges>>shift, genSeed) })
	}
	return g
}

// buildAll generates every dataset in sets for benchmark seed seed.
func buildAll(sets []dataset, shift int, seed uint64, tr *tracer) []input {
	id := tr.begin("setup", 0)
	defer tr.end(id)
	out := make([]input, len(sets))
	for i, d := range sets {
		out[i] = input{name: d.name, g: d.build(shift, mix(seed, d.seed), tr, id)}
	}
	return out
}

// mix hashes the benchmark seed into a generator seed (splitmix64
// finalizer), so every seed gives different graphs of the same shape.
func mix(seed, genSeed uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + genSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
