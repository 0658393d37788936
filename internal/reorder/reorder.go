// Package reorder implements the vertex relabeling algorithms (RAs) the
// paper studies — SlashBurn, GOrder and Rabbit-Order — together with the
// paper's proposed improvements (SlashBurn++, EDR-restricted Rabbit-Order)
// and a set of lightweight baselines (degree sort, hub sort, hub cluster,
// DBG, RCM, random) used as experimental controls.
//
// A relabeling algorithm receives a graph and produces a relabeling array
// of |V| elements indexed by old vertex ID yielding the new ID (§II-E).
// The graph is then rebuilt with graph.Relabel.
//
// # API
//
// Every algorithm implements the single context-first Algorithm interface:
//
//	Reorder(ctx, g) (graph.Permutation, error)
//
// The heavy algorithms (SlashBurn, GOrder, Rabbit-Order, Hybrid) poll ctx
// and return a valid partial permutation wrapping runctl.ErrCanceled when
// it dies mid-run. Cheap combinatorial orderings implement the ContextFree
// interface instead and are adapted with Wrap (or the Legacy struct), so
// callers never type-assert for cancelability.
//
// Algorithms are constructed by name through the registry (New, MustNew,
// List) with functional options (WithSeed, WithWindow, WithEDR,
// WithCacheBytes); see registry.go and options.go.
package reorder

import (
	"context"
	"runtime"
	"sort"
	"time"

	"graphlocality/internal/graph"
)

// Algorithm is a vertex reordering (relabeling) algorithm. Reorder
// computes the relabeling array for g (old ID → new ID) under ctx:
// cancelable implementations return the valid partial permutation computed
// so far together with an error wrapping runctl.ErrCanceled; context-free
// implementations (adapted via Wrap/Legacy) ignore ctx and never fail.
type Algorithm interface {
	// Name returns a short identifier ("SB", "GO", "RO", ...).
	Name() string
	// Reorder computes the relabeling array for g (old ID → new ID).
	Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error)
}

// ContextFree is a relabeling algorithm with no long-running loops and
// therefore no cancellation points. Adapt one to Algorithm with Wrap.
type ContextFree interface {
	// Name returns a short identifier ("DegSort", "DBG", ...).
	Name() string
	// Relabel computes the relabeling array for g (old ID → new ID).
	Relabel(g *graph.Graph) graph.Permutation
}

// Legacy adapts a context-free relabeling to the context-first Algorithm
// interface: Reorder ignores ctx and never returns an error. Construct
// with Wrap or as Legacy{ContextFree: impl}.
type Legacy struct {
	ContextFree
}

// Reorder implements Algorithm by delegating to the wrapped Relabel.
func (l Legacy) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	return l.ContextFree.Relabel(g), nil
}

// Wrap adapts a context-free relabeling to the Algorithm interface.
func Wrap(cf ContextFree) Algorithm { return Legacy{ContextFree: cf} }

// Perm runs alg to completion with a background context and returns just
// the permutation — a convenience for call sites that cannot be canceled.
func Perm(alg Algorithm, g *graph.Graph) graph.Permutation {
	perm, _ := alg.Reorder(context.Background(), g)
	return perm
}

// Result captures one reordering run with the preprocessing-cost metrics
// of the paper's Table II.
type Result struct {
	Algorithm string
	Perm      graph.Permutation
	Elapsed   time.Duration // preprocessing time
	// AllocBytes is the total bytes allocated while reordering (a
	// deterministic proxy for the paper's peak-footprint measurement; see
	// DESIGN.md). It is a process-global delta, so it is only meaningful
	// when nothing else allocates concurrently.
	AllocBytes uint64
}

// Run executes alg on g, measuring preprocessing time and allocation.
func Run(alg Algorithm, g *graph.Graph) Result {
	res, _ := RunContext(context.Background(), alg, g)
	return res
}

// RunContext executes alg on g under ctx, measuring preprocessing time and
// allocation. On cancellation the returned Result carries the partial
// permutation alongside the error.
func RunContext(ctx context.Context, alg Algorithm, g *graph.Graph) (Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	perm, err := alg.Reorder(ctx, g)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Algorithm:  alg.Name(),
		Perm:       perm,
		Elapsed:    elapsed,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}, err
}

func init() {
	MustRegister(Registration{
		Name:        "identity",
		Aliases:     []string{"initial", "bl"},
		Description: "baseline: keep the initial vertex order",
		Class:       ClassLight,
		New:         func(*Options) Algorithm { return Identity{} },
	})
	MustRegister(Registration{
		Name:        "random",
		Description: "uniform shuffle, the locality-destroying control",
		Class:       ClassLight,
		Accepts:     []string{OptSeed},
		New:         func(o *Options) Algorithm { return Wrap(Random{Seed: o.Seed}) },
	})
	MustRegister(Registration{
		Name:        "degsort",
		Aliases:     []string{"degree"},
		Description: "sort all vertices by descending total degree",
		Class:       ClassLight,
		New:         func(*Options) Algorithm { return Wrap(DegreeSort{}) },
	})
	MustRegister(Registration{
		Name:        "hubsort",
		Aliases:     []string{"hs"},
		Description: "sort hub vertices by degree, keep the rest in place",
		Class:       ClassLight,
		New:         func(*Options) Algorithm { return Wrap(HubSort{}) },
	})
	MustRegister(Registration{
		Name:        "hubcluster",
		Aliases:     []string{"hc"},
		Description: "pack hubs into low IDs without sorting (sort-free HubSort)",
		Class:       ClassLight,
		New:         func(*Options) Algorithm { return Wrap(HubCluster{}) },
	})
	MustRegister(Registration{
		Name:        "dbg",
		Description: "degree-based grouping into power-of-two degree classes",
		Class:       ClassLight,
		New:         func(*Options) Algorithm { return Wrap(DBG{}) },
	})
}

// Identity leaves the graph in its initial order (the paper's baseline
// "Bl" / "Initial"). It implements Algorithm directly (rather than via
// Legacy) so callers can recognise it by type and skip relabeling work.
type Identity struct{}

// Name implements Algorithm.
func (Identity) Name() string { return "Initial" }

// Reorder implements Algorithm; it cannot fail.
func (Identity) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	return graph.Identity(g.NumVertices()), nil
}

// Random shuffles vertex IDs uniformly — the worst-case control that
// destroys any locality present in the initial order.
type Random struct {
	Seed uint64
}

// Name implements ContextFree.
func (Random) Name() string { return "Random" }

// Relabel implements ContextFree.
func (r Random) Relabel(g *graph.Graph) graph.Permutation {
	p := graph.Identity(g.NumVertices())
	rng := splitmix{s: r.Seed}
	for i := len(p) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitmix is a tiny local RNG so reorder does not depend on gen.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DegreeSort assigns IDs by descending total degree (in+out), the
// representative "degree-ordering" family SlashBurn generalizes (§IV-A).
type DegreeSort struct{}

// Name implements ContextFree.
func (DegreeSort) Name() string { return "DegSort" }

// Relabel implements ContextFree.
func (DegreeSort) Relabel(g *graph.Graph) graph.Permutation {
	order := graph.VerticesByDegreeDesc(g.TotalDegrees())
	return orderToPerm(order)
}

// HubSort (Faldu et al., IISWC'19) sorts only the hub vertices (total
// degree above average) by descending degree into the lowest IDs and keeps
// all other vertices in their original relative order.
type HubSort struct{}

// Name implements ContextFree.
func (HubSort) Name() string { return "HubSort" }

// Relabel implements ContextFree.
func (HubSort) Relabel(g *graph.Graph) graph.Permutation {
	deg := g.TotalDegrees()
	avg := g.AverageDegree() * 2 // total degree averages 2|E|/|V|
	var hubs, rest []uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(deg[v]) > avg {
			hubs = append(hubs, v)
		} else {
			rest = append(rest, v)
		}
	}
	sort.Slice(hubs, func(i, j int) bool {
		a, b := hubs[i], hubs[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	return orderToPerm(append(hubs, rest...))
}

// HubCluster packs hub vertices (total degree above average) into the
// lowest IDs while preserving relative order within both hubs and
// non-hubs — the sort-free lightweight variant.
type HubCluster struct{}

// Name implements ContextFree.
func (HubCluster) Name() string { return "HubCluster" }

// Relabel implements ContextFree.
func (HubCluster) Relabel(g *graph.Graph) graph.Permutation {
	deg := g.TotalDegrees()
	avg := g.AverageDegree() * 2
	var hubs, rest []uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(deg[v]) > avg {
			hubs = append(hubs, v)
		} else {
			rest = append(rest, v)
		}
	}
	return orderToPerm(append(hubs, rest...))
}

// DBG is degree-based grouping (Faldu et al.): vertices are binned into
// power-of-two degree classes; classes are laid out from the highest
// degree down, preserving original order within each class.
type DBG struct{}

// Name implements ContextFree.
func (DBG) Name() string { return "DBG" }

// Relabel implements ContextFree.
func (DBG) Relabel(g *graph.Graph) graph.Permutation {
	deg := g.TotalDegrees()
	group := func(d uint32) int {
		gid := 0
		for d > 0 {
			d >>= 1
			gid++
		}
		return gid // 0 for degree 0, else floor(log2(d))+1
	}
	maxG := 0
	for _, d := range deg {
		if gr := group(d); gr > maxG {
			maxG = gr
		}
	}
	buckets := make([][]uint32, maxG+1)
	for v := uint32(0); v < g.NumVertices(); v++ {
		gr := group(deg[v])
		buckets[gr] = append(buckets[gr], v)
	}
	order := make([]uint32, 0, g.NumVertices())
	for gr := maxG; gr >= 0; gr-- {
		order = append(order, buckets[gr]...)
	}
	return orderToPerm(order)
}

// orderToPerm converts a visiting order (order[i] = old ID of the vertex
// placed at new ID i) into the relabeling array perm[old] = new.
func orderToPerm(order []uint32) graph.Permutation {
	perm := make(graph.Permutation, len(order))
	for newID, old := range order {
		perm[old] = uint32(newID)
	}
	return perm
}
