// Package expt is the experiment harness: one runner per table and figure
// of the paper's evaluation, over a synthetic dataset suite that stands in
// for Table I's real graphs (see DESIGN.md for the substitution argument).
// Each runner returns a typed result that renders the same rows/series the
// paper reports.
package expt

import (
	"fmt"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// Kind classifies a dataset like the paper's Table I "Type" column.
type Kind string

const (
	// SocialNetwork datasets have power-law degrees with reciprocal,
	// tightly inter-connected hubs (Twitter MPI, Friendster).
	SocialNetwork Kind = "SN"
	// WebGraph datasets have asymmetric in-hubs and host-local links
	// (SK-Domain, UK-Union, ...).
	WebGraph Kind = "WG"
	// Uniform datasets are hub-free controls (not in the paper's suite).
	Uniform Kind = "UN"
)

// Dataset is a named, lazily generated graph.
type Dataset struct {
	Name string
	Kind Kind
	// Paper names the real graph this one stands in for.
	Paper string
	gen   func() *graph.Graph
}

// Build generates the graph (deterministic; callers should memoize via
// Session).
func (d Dataset) Build() *graph.Graph { return d.gen() }

// NewDataset wraps an already-built graph (e.g. loaded from a file) as a
// Dataset so the experiment runners can treat user graphs like the
// synthetic suite.
func NewDataset(name string, kind Kind, paper string, g *graph.Graph) Dataset {
	return Dataset{Name: name, Kind: kind, Paper: paper,
		gen: func() *graph.Graph { return g }}
}

// Size selects the dataset scale.
type Size int

const (
	// Tiny datasets keep unit tests fast (thousands of vertices).
	Tiny Size = iota
	// Standard datasets are the bench/experiment scale (tens to hundreds
	// of thousands of vertices, 10⁵–10⁶ edges).
	Standard
)

// ParseSize maps a -size value, "tiny" or "standard", to its Size.
func ParseSize(name string) (Size, error) {
	if size, ok := map[string]Size{"tiny": Tiny, "standard": Standard}[name]; ok {
		return size, nil
	}
	return 0, fmt.Errorf("unknown size %q (want tiny or standard)", name)
}

// Suite returns the dataset suite at the given size. The Standard suite
// mirrors the paper's mix: two social networks, three web graphs, one
// uniform control.
func Suite(size Size) []Dataset {
	if size == Tiny {
		return []Dataset{
			{Name: "TwtrT", Kind: SocialNetwork, Paper: "Twitter MPI",
				gen: func() *graph.Graph { return gen.SocialNetwork(11, 12, 42) }},
			{Name: "WebT", Kind: WebGraph, Paper: "SK-Domain",
				gen: func() *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<12, 10, 9)) }},
			{Name: "UnifT", Kind: Uniform, Paper: "(control)",
				gen: func() *graph.Graph { return gen.ErdosRenyi(1<<12, 40000, 1) }},
		}
	}
	return []Dataset{
		{Name: "TwtrS", Kind: SocialNetwork, Paper: "Twitter MPI",
			gen: func() *graph.Graph { return gen.SocialNetwork(15, 16, 42) }},
		{Name: "FrndS", Kind: SocialNetwork, Paper: "Friendster",
			gen: func() *graph.Graph { return gen.SocialNetwork(16, 12, 7) }},
		{Name: "SKS", Kind: WebGraph, Paper: "SK-Domain",
			gen: func() *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<15, 16, 9)) }},
		{Name: "WebS", Kind: WebGraph, Paper: "Web-CC12",
			gen: func() *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<16, 10, 3)) }},
		{Name: "UKS", Kind: WebGraph, Paper: "UK-Union",
			gen: func() *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<17, 8, 5)) }},
		{Name: "UnifS", Kind: Uniform, Paper: "(control)",
			gen: func() *graph.Graph { return gen.ErdosRenyi(1<<15, 500000, 1) }},
	}
}
