package gen

import (
	"graphlocality/internal/graph"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT / Kronecker)
// generator. The classic social-network setting is a=0.57, b=0.19, c=0.19,
// d=0.05 (Graph500), which yields power-law in- and out-degrees with
// strongly correlated hubs.
type RMATConfig struct {
	Scale         int     // |V| = 2^Scale
	EdgeFac       int     // |E| = EdgeFac * |V|
	A, B, C       float64 // quadrant probabilities; D = 1-A-B-C
	Noise         float64 // per-level probability perturbation (0.1 is typical)
	Seed          uint64
	Reciprocation float64 // probability that each edge also gets its reverse
}

// DefaultRMAT returns the Graph500 social-network parameterization.
func DefaultRMAT(scale, edgeFac int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFac: edgeFac,
		A: 0.57, B: 0.19, C: 0.19,
		Noise: 0.1, Seed: seed,
	}
}

// RMAT generates a directed R-MAT graph. Self-loops are dropped and
// duplicate edges removed; zero-degree vertices are *not* removed (callers
// that follow the paper's methodology should call RemoveZeroDegree).
//
// The RNG state stays in locals for the whole run. Each level draws the
// four perturbations and then u, in that order, and evaluates every
// expression in the same shape as a * (1 - Noise/2 + Noise*f), with the
// invariants 1 - Noise/2 and 1 - A - B - C hoisted (DESIGN §19). The
// quadrant comes from comparing u against the partial sums of the
// normalisation: the src bit is u ≥ a+b, and the dst bit flips at each of
// a, a+b and a+b+c. With A, B, C ≥ 0 and Noise ≤ 2 the sums are ordered,
// so this is the first-match quadrant choice.
func RMAT(cfg RMATConfig) *graph.Graph {
	x := NewRNG(cfg.Seed).s
	n := uint32(1) << cfg.Scale
	target := cfg.EdgeFac * int(n)
	edges := make([]graph.Edge, 0, target+target/4)
	a, b, c, d := cfg.A, cfg.B, cfg.C, 1-cfg.A-cfg.B-cfg.C
	base, noise := 1-cfg.Noise/2, cfg.Noise
	var r1, r2, r3, r4, r5 uint64
	for len(edges) < target {
		var src, dst uint32
		for level := 0; level < cfg.Scale; level++ {
			// Perturb quadrant probabilities each level so degrees smooth out.
			x, r1 = x.next()
			x, r2 = x.next()
			x, r3 = x.next()
			x, r4 = x.next()
			x, r5 = x.next()
			al := a * (base + noise*unitFloat(r1))
			bl := b * (base + noise*unitFloat(r2))
			cl := c * (base + noise*unitFloat(r3))
			dl := d * (base + noise*unitFloat(r4))
			ab := al + bl
			abc := ab + cl
			u := unitFloat(r5) * (abc + dl)
			hi := bit(u >= ab)
			src = src<<1 | hi
			dst = dst<<1 | (bit(u >= al) ^ hi ^ bit(u >= abc))
		}
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
		if cfg.Reciprocation > 0 {
			if x, r1 = x.next(); unitFloat(r1) < cfg.Reciprocation {
				edges = append(edges, graph.Edge{Src: dst, Dst: src})
			}
		}
	}
	return graph.FromEdgesDedup(n, edges)
}

// bit converts a comparison to 0 or 1 without a branch.
func bit(b bool) uint32 {
	var v uint32
	if b {
		v = 1
	}
	return v
}

// SocialNetwork generates the repo's standard social-network stand-in: an
// R-MAT graph with high reciprocity (0.65), so in-hubs are also out-hubs
// as observed for Twitter MPI in the paper (Fig. 4), and with the row
// marginal skewed harder than the column marginal (B > C), so out-hubs
// carry more edge mass than in-hubs — the property behind the paper's
// Fig. 6 finding that social networks benefit from pull locality.
func SocialNetwork(scale, edgeFac int, seed uint64) *graph.Graph {
	cfg := RMATConfig{
		Scale: scale, EdgeFac: edgeFac,
		A: 0.57, B: 0.24, C: 0.14,
		Noise: 0.1, Seed: seed,
		Reciprocation: 0.65,
	}
	g := RMAT(cfg)
	g, _ = g.RemoveZeroDegree()
	return g
}
