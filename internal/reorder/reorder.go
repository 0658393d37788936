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
// The heavy algorithms (SlashBurn, GOrder, Rabbit-Order, Hybrid, Brew)
// poll ctx and return a valid partial permutation wrapping
// runctl.ErrCanceled when it dies mid-run; the cheap combinatorial
// orderings ignore ctx and never fail.
//
// Algorithms are constructed from a spec string ("ro", "go:window=7")
// through the registry: New and MustNew are the only constructors, and an
// algorithm's Spec() — its canonical spec — is its identity. See
// registry.go, spec.go and params.go.
package reorder

import (
	"context"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"time"

	"graphlocality/internal/graph"
)

// Algorithm is a vertex reordering (relabeling) algorithm. Reorder
// computes the relabeling array for g (old ID → new ID) under ctx:
// cancelable implementations return the valid partial permutation computed
// so far together with an error wrapping runctl.ErrCanceled; the cheap
// orderings ignore ctx and never fail.
type Algorithm interface {
	// Name returns a short display identifier ("SB", "GO", "RO", ...)
	// used for table rows and stage names. Distinct configurations may
	// share a name.
	Name() string
	// Spec returns the canonical spec of the configuration: the
	// canonical registry name followed by only the parameters that
	// differ from their defaults, sorted by key. New(Spec()) rebuilds
	// the same configuration, and equal specs produce equal
	// permutations, so caches and checkpoints key on it.
	Spec() string
	// Reorder computes the relabeling array for g (old ID → new ID).
	Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error)
}

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
		New:         func(Params) (Algorithm, error) { return Identity{}, nil },
	})
	MustRegister(Registration{
		Name:        "random",
		Description: "uniform shuffle, the locality-destroying control",
		Class:       ClassLight,
		Accepts:     []string{OptSeed},
		New: func(p Params) (Algorithm, error) {
			seed, err := p.Seed()
			return Random{Seed: seed}, err
		},
	})
	MustRegister(Registration{
		Name:        "degsort",
		Aliases:     []string{"degree"},
		Description: "sort all vertices by descending total degree",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return DegreeSort{}, nil },
	})
	MustRegister(Registration{
		Name:        "hubsort",
		Aliases:     []string{"hs"},
		Description: "sort hub vertices by degree, keep the rest in place",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return HubSort{}, nil },
	})
	MustRegister(Registration{
		Name:        "hubcluster",
		Aliases:     []string{"hc"},
		Description: "pack hubs into low IDs without sorting (sort-free HubSort)",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return HubCluster{}, nil },
	})
	MustRegister(Registration{
		Name:        "dbg",
		Description: "degree-based grouping into power-of-two degree classes",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return DBG{}, nil },
	})
}

// Identity leaves the graph in its initial order (the paper's baseline
// "Bl" / "Initial"). Callers recognise it by type and skip relabeling
// work.
type Identity struct{}

// Name implements Algorithm.
func (Identity) Name() string { return "Initial" }

// Spec implements Algorithm.
func (Identity) Spec() string { return "identity" }

// Reorder implements Algorithm; it cannot fail.
func (Identity) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	return graph.Identity(g.NumVertices()), nil
}

// Random shuffles vertex IDs uniformly — the worst-case control that
// destroys any locality present in the initial order.
type Random struct {
	Seed uint64
}

// Name implements Algorithm.
func (r Random) Name() string { return displayName("Random", r.params()...) }

// Spec implements Algorithm.
func (r Random) Spec() string { return specOf("random", r.params()...) }

// params returns the seed parameter, none at the default seed 1.
func (r Random) params() []Param {
	if r.Seed == 1 {
		return nil
	}
	return []Param{{OptSeed, strconv.FormatUint(r.Seed, 10)}}
}

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (r Random) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	rng := splitmix{s: r.Seed}
	return rng.shuffled(g.NumVertices()), nil
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

// shuffled returns 0..n-1 in a Fisher–Yates order drawn from r.
func (r *splitmix) shuffled(n uint32) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// DegreeSort assigns IDs by descending total degree (in+out), the
// representative "degree-ordering" family SlashBurn generalizes (§IV-A).
type DegreeSort struct{}

// Name implements Algorithm.
func (DegreeSort) Name() string { return "DegSort" }

// Spec implements Algorithm.
func (DegreeSort) Spec() string { return "degsort" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (DegreeSort) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	order := graph.VerticesByDegreeDesc(g.TotalDegrees())
	return orderToPerm(order), nil
}

// HubSort (Faldu et al., IISWC'19) sorts only the hub vertices (total
// degree above average) by descending degree into the lowest IDs and keeps
// all other vertices in their original relative order.
type HubSort struct{}

// Name implements Algorithm.
func (HubSort) Name() string { return "HubSort" }

// Spec implements Algorithm.
func (HubSort) Spec() string { return "hubsort" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (HubSort) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	hubs, rest, deg := splitHubs(g)
	sort.Slice(hubs, func(i, j int) bool {
		a, b := hubs[i], hubs[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	return orderToPerm(append(hubs, rest...)), nil
}

// splitHubs partitions the vertices into hubs (total degree above
// average) and the rest, both in ascending ID order, and returns the
// total degrees it judged them by.
func splitHubs(g *graph.Graph) (hubs, rest, deg []uint32) {
	deg = g.TotalDegrees()
	avg := g.AverageDegree() * 2 // total degree averages 2|E|/|V|
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(deg[v]) > avg {
			hubs = append(hubs, v)
		} else {
			rest = append(rest, v)
		}
	}
	return hubs, rest, deg
}

// HubCluster packs hub vertices (total degree above average) into the
// lowest IDs while preserving relative order within both hubs and
// non-hubs — the sort-free lightweight variant.
type HubCluster struct{}

// Name implements Algorithm.
func (HubCluster) Name() string { return "HubCluster" }

// Spec implements Algorithm.
func (HubCluster) Spec() string { return "hubcluster" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (HubCluster) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	hubs, rest, _ := splitHubs(g)
	return orderToPerm(append(hubs, rest...)), nil
}

// DBG is degree-based grouping (Faldu et al.): vertices are binned into
// power-of-two degree classes (bits.Len32 of the total degree: 0 for
// degree 0, else floor(log2(d))+1); classes are laid out from the highest
// degree down, preserving original order within each class.
type DBG struct{}

// Name implements Algorithm.
func (DBG) Name() string { return "DBG" }

// Spec implements Algorithm.
func (DBG) Spec() string { return "dbg" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (DBG) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	deg := g.TotalDegrees()
	maxG := 0
	for _, d := range deg {
		if gr := bits.Len32(d); gr > maxG {
			maxG = gr
		}
	}
	buckets := make([][]uint32, maxG+1)
	for v := uint32(0); v < g.NumVertices(); v++ {
		gr := bits.Len32(deg[v])
		buckets[gr] = append(buckets[gr], v)
	}
	order := make([]uint32, 0, g.NumVertices())
	for gr := maxG; gr >= 0; gr-- {
		order = append(order, buckets[gr]...)
	}
	return orderToPerm(order), nil
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
