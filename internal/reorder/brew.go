package reorder

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"graphlocality/internal/graph"
)

// Brew is the per-community hybrid meta-reordering (after GraphBrew):
// detect communities, classify each community's internal structure, apply
// the registry algorithm suited to that structure to each community in
// isolation, and merge the per-community permutations into one global
// permutation with communities laid out largest-first.
//
// The paper's central finding is that no single reordering wins
// everywhere — lightweight degree orderings win on hub-dominated
// structure, heavyweight community orderings on clustered structure. Brew
// acts on that finding at community granularity instead of whole-graph
// granularity.
//
// Brew is spec-constructible on every surface that accepts algorithm
// specs:
//
//	brew
//	brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0
//	brew:detect=none,else=go        (degenerates to global GO)
//
// With a fixed Seed the output is bit-deterministic: detection uses seeded
// shuffles with structural tie-breaks, classification is closed-form, the
// sub-algorithms are the registry's deterministic implementations, and the
// merge orders communities by (size desc, community ID asc).
type Brew struct {
	// Detect selects the community detector: "louvain" (default), "lp"
	// (label propagation) or "none" (single community).
	Detect string
	// Hub, Dense, Else name the registry algorithms applied to hub-heavy,
	// dense and remaining communities ("hubsort", "ro", "dbg" by default).
	// Meta-class algorithms are rejected at construction.
	Hub, Dense, Else string
	// Resolution is the Louvain resolution (default 1.0; ignored by other
	// detectors).
	Resolution float64
	// Seed seeds the detector's visit shuffles (default 1).
	Seed uint64
	// MinSize is the community size below which classification is skipped
	// and the Else algorithm used directly (default 16): tiny communities
	// have too few internal edges for the statistics to mean anything.
	MinSize int
	// Classifier holds the structure thresholds (zero value = defaults).
	Classifier Classifier
	// PollEvery is the cooperative-cancellation granularity, in detector
	// steps (0 = runctl.DefaultPollInterval).
	PollEvery int
}

const (
	brewDefaultDetect = "louvain"
	brewDefaultHub    = "hubsort"
	brewDefaultDense  = "ro"
	brewDefaultElse   = "dbg"
)

// brewDetectors enumerates the valid detect= values.
var brewDetectors = map[string]bool{"louvain": true, "lp": true, "none": true}

// newBrew is brew's factory: it maps the spec's parameters onto a Brew,
// validating every value with typed errors.
func newBrew(p Params) (Algorithm, error) {
	seed, err := p.Seed()
	if err != nil {
		return nil, err
	}
	b := &Brew{Seed: seed}
	if d, ok := p.Get("detect"); ok {
		if !brewDetectors[d] {
			return nil, p.invalid("detect", d, "want louvain, lp or none")
		}
		b.Detect = d
	}
	for _, slot := range []struct {
		key string
		dst *string
	}{{"hub", &b.Hub}, {"dense", &b.Dense}, {"else", &b.Else}} {
		v, ok := p.Get(slot.key)
		if !ok {
			continue
		}
		info, known := Lookup(v)
		if !known {
			return nil, p.invalid(slot.key, v, "unknown algorithm (known: "+strings.Join(List(), ", ")+")")
		}
		if info.Class == ClassMeta {
			return nil, p.invalid(slot.key, v, "meta algorithms cannot be brewed into communities")
		}
		*slot.dst = info.Name
	}
	if r, ok := p.Get("resolution"); ok {
		v, err := strconv.ParseFloat(r, 64)
		if err != nil || v <= 0 {
			return nil, p.invalid("resolution", r, "want a number > 0")
		}
		b.Resolution = v
	}
	b.MinSize, err = p.Int("minsize", 0, 1, "want an integer >= 1")
	return b, err
}

// resolved returns the configuration with defaults filled in.
func (b *Brew) resolved() (detect, hub, dense, els string, resolution float64, seed uint64, minSize int) {
	detect, hub, dense, els = b.Detect, b.Hub, b.Dense, b.Else
	if detect == "" {
		detect = brewDefaultDetect
	}
	if hub == "" {
		hub = brewDefaultHub
	}
	if dense == "" {
		dense = brewDefaultDense
	}
	if els == "" {
		els = brewDefaultElse
	}
	resolution = b.Resolution
	if resolution <= 0 {
		resolution = 1.0
	}
	seed = b.Seed
	minSize = b.MinSize
	if minSize < 1 {
		minSize = 16
	}
	return
}

// params returns the configuration's non-default parameters in display
// order, sub-algorithm names canonicalized.
func (b *Brew) params() []Param {
	detect, hub, dense, els, resolution, seed, minSize := b.resolved()
	var ps []Param
	add := func(key, value, def string) {
		if value != def {
			ps = append(ps, Param{key, value})
		}
	}
	canonical := func(name string) string {
		if info, ok := Lookup(name); ok {
			return info.Name
		}
		return name
	}
	add("detect", detect, brewDefaultDetect)
	add("hub", canonical(hub), brewDefaultHub)
	add("dense", canonical(dense), brewDefaultDense)
	add("else", canonical(els), brewDefaultElse)
	add("resolution", strconv.FormatFloat(resolution, 'g', -1, 64), "1")
	add("minsize", strconv.Itoa(minSize), "16")
	add(OptSeed, strconv.FormatUint(seed, 10), "1")
	return ps
}

// Name implements Algorithm. The default configuration is just "Brew";
// non-default parameters are appended in a fixed order.
func (b *Brew) Name() string { return displayName("Brew", b.params()...) }

// Spec implements Algorithm.
func (b *Brew) Spec() string { return specOf("brew", b.params()...) }

// Reorder implements Algorithm. On cancellation, communities already
// reordered keep their sub-permutation and the rest fall back to local
// identity order, so the partial result is always a valid permutation laid
// out by community.
func (b *Brew) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := g.NumVertices()
	perm := make(graph.Permutation, n)
	if n == 0 {
		return perm, nil
	}
	detect, hubName, denseName, elseName, resolution, seed, minSize := b.resolved()

	// Sub-algorithm instances, one per slot (names were validated at
	// construction when built by New; direct struct literals surface
	// unknown names here).
	algs := make(map[string]Algorithm, 3)
	for _, name := range []string{hubName, denseName, elseName} {
		if _, ok := algs[name]; ok {
			continue
		}
		alg, err := New(name)
		if err != nil {
			return nil, fmt.Errorf("brew: sub-algorithm %q: %w", name, err)
		}
		algs[name] = alg
	}

	var comms Communities
	var detectErr error
	switch detect {
	case "none":
		comms = SingleCommunity(g)
	case "lp":
		comms, detectErr = DetectLabelProp(ctx, g, seed, b.PollEvery)
	case "louvain":
		comms, detectErr = DetectLouvain(ctx, g, resolution, seed, b.PollEvery)
	default:
		return nil, fmt.Errorf("brew: unknown detector %q (want louvain, lp or none)", detect)
	}

	views := g.PartitionByMembership(comms.Membership, comms.Count)

	// Merge layout: communities by size descending, ties by community ID
	// ascending (= ascending smallest member, since detectors number
	// communities that way). Decided before any sub-run so that
	// cancellation mid-way cannot change where a community lands.
	order := make([]int, len(views))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if views[a].NumVertices() != views[c].NumVertices() {
			return views[a].NumVertices() > views[c].NumVertices()
		}
		return a < c
	})
	base := make([]uint32, len(views))
	var next uint32
	for _, i := range order {
		base[i] = next
		next += views[i].NumVertices()
	}

	// Per-community reorder, largest communities first so cancellation
	// degrades gracefully: the communities that matter most for locality
	// are brewed first.
	err := detectErr
	for _, i := range order {
		view := views[i]
		sz := view.NumVertices()
		if sz == 0 {
			continue
		}
		if err != nil || sz == 1 {
			// Canceled (or trivial): local identity order.
			for l := uint32(0); l < sz; l++ {
				perm[view.Global(l)] = base[i] + l
			}
			continue
		}
		alg := algs[elseName]
		if int(sz) >= minSize {
			switch b.Classifier.Classify(view) {
			case CommunityHubHeavy:
				alg = algs[hubName]
			case CommunityDense:
				alg = algs[denseName]
			}
		}
		sub := view.Materialize()
		local, serr := alg.Reorder(ctx, sub)
		if serr != nil {
			err = serr // keep the partial sub-permutation: it is valid
		}
		for l := uint32(0); l < sz; l++ {
			perm[view.Global(l)] = base[i] + local[l]
		}
	}
	return perm, err
}
