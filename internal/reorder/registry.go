package reorder

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Class is the machine-readable cost class of a reordering algorithm, the
// trait the paper's skew results revolve around: lightweight RAs
// (degree-based, near-linear) versus heavyweight RAs (community/score
// driven), plus meta-algorithms that compose other registered RAs.
type Class string

const (
	// ClassLight marks near-linear degree/traversal orderings (DBG,
	// HubSort, ...): cheap preprocessing, wins on hub-heavy structure.
	ClassLight Class = "light"
	// ClassHeavy marks community- or score-driven orderings (RO, GO,
	// SB): expensive preprocessing, wins on community structure.
	ClassHeavy Class = "heavy"
	// ClassMeta marks algorithms that compose other registry entries
	// (brew, hybrid) rather than ordering vertices by one fixed rule.
	ClassMeta Class = "meta"
)

// Registration describes one algorithm to the registry.
type Registration struct {
	// Name is the canonical lookup key ("sb", "go", "ro", ...).
	Name string
	// Aliases are alternative lookup keys ("slashburn", "gorder", ...).
	Aliases []string
	// Description is a one-line human-readable summary, surfaced by the
	// `localitylab algorithms` listing.
	Description string
	// Class is the cost class (light, heavy, meta). Consumers should
	// branch on this instead of hard-coding name lists.
	Class Class
	// Accepts lists every spec key the factory consumes; New rejects any
	// other key before the factory runs.
	Accepts []string
	// New builds the algorithm from its spec parameters, reading them
	// through Params' typed getters.
	New func(p Params) (Algorithm, error)
}

// Info is the machine-readable metadata of one registered algorithm, in a
// form safe to hand out (no factory).
type Info struct {
	Name        string
	Aliases     []string
	Description string
	Class       Class
	Accepts     []string
}

// registrations is the fixed set of algorithms New can build. Names and
// aliases must be pairwise distinct (TestRegistryTable checks it).
var registrations = []Registration{
	{
		Name:        "identity",
		Aliases:     []string{"initial", "bl"},
		Description: "baseline: keep the initial vertex order",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return Identity{}, nil },
	},
	{
		Name:        "random",
		Description: "uniform shuffle, the locality-destroying control",
		Class:       ClassLight,
		Accepts:     []string{OptSeed},
		New: func(p Params) (Algorithm, error) {
			seed, err := p.Seed()
			return Random{Seed: seed}, err
		},
	},
	{
		Name:        "degsort",
		Aliases:     []string{"degree"},
		Description: "sort all vertices by descending total degree",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return DegreeSort{}, nil },
	},
	{
		Name:        "hubsort",
		Aliases:     []string{"hs"},
		Description: "sort hub vertices by degree, keep the rest in place",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return HubSort{}, nil },
	},
	{
		Name:        "hubcluster",
		Aliases:     []string{"hc"},
		Description: "pack hubs into low IDs without sorting (sort-free HubSort)",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return HubCluster{}, nil },
	},
	{
		Name:        "dbg",
		Description: "degree-based grouping into power-of-two degree classes",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return DBG{}, nil },
	},
	{
		Name:        "bfs",
		Description: "breadth-first discovery order from the highest-degree vertex",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return BFSOrder{}, nil },
	},
	{
		Name:        "rcm",
		Description: "Reverse Cuthill-McKee bandwidth reduction (1969 baseline)",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return RCM{}, nil },
	},
	{
		Name:        "boba",
		Description: "parallel sort-free degree bucketing (BOBA): DBG's classes via two counting passes, bit-equal at any worker count",
		Class:       ClassLight,
		Accepts:     []string{OptSeed, "workers"},
		New: func(p Params) (Algorithm, error) {
			if _, err := p.Seed(); err != nil {
				return nil, err
			}
			w, err := p.Int("workers", 0, 0, "want a non-negative integer (0 = GOMAXPROCS)")
			return Boba{Workers: w}, err
		},
	},
	{
		Name:        "sb",
		Aliases:     []string{"slashburn"},
		Description: "SlashBurn: iterative hub removal + GCC ordering (paper §IV-A)",
		Class:       ClassHeavy,
		Accepts:     []string{OptCacheBytes},
		New: func(p Params) (Algorithm, error) {
			cacheBytes, err := p.CacheBytes()
			return &SlashBurn{KFraction: 0.02, CacheBytes: cacheBytes}, err
		},
	},
	{
		Name:        "sb++",
		Aliases:     []string{"slashburn++"},
		Description: "SlashBurn++: SlashBurn with early stopping at max degree sqrt(|V|)",
		Class:       ClassHeavy,
		New: func(Params) (Algorithm, error) {
			return &SlashBurn{KFraction: 0.02, StopAtSqrtDegree: true}, nil
		},
	},
	{
		Name:        "ro",
		Aliases:     []string{"rabbit", "rabbitorder"},
		Description: "Rabbit-Order: modularity-greedy community growth + dendrogram DFS (IPDPS'16)",
		Class:       ClassHeavy,
		Accepts:     []string{OptEDR, OptCacheBytes},
		New: func(p Params) (Algorithm, error) {
			lo, hi, err := p.EDR()
			if err != nil {
				return nil, err
			}
			cacheBytes, err := p.CacheBytes()
			return &RabbitOrder{
				MinDegree:        lo,
				MaxDegree:        hi,
				MaxCommunitySize: uint32(cacheBytes / 8),
			}, err
		},
	},
	{
		Name:        "go",
		Aliases:     []string{"gorder"},
		Description: "GOrder: sliding-window sibling/neighbour score maximization (SIGMOD'16)",
		Class:       ClassHeavy,
		Accepts:     []string{OptWindow, OptHubCap},
		New: func(p Params) (Algorithm, error) {
			w, err := p.Window()
			if err != nil {
				return nil, err
			}
			c, err := p.HubCap()
			return &GOrder{Window: w, HubCap: c}, err
		},
	},
	{
		Name:        "hybrid",
		Aliases:     []string{"ro+go"},
		Description: "RO over low-degree vertices, then GOrder over the hub block (paper §VIII-C)",
		Class:       ClassMeta,
		Accepts:     []string{OptWindow},
		New: func(p Params) (Algorithm, error) {
			w, err := p.Window()
			return &Hybrid{Window: w}, err
		},
	},
	{
		Name:        "brew",
		Aliases:     []string{"graphbrew"},
		Description: "per-community hybrid: detect communities, classify each, reorder each with the best-suited RA",
		Class:       ClassMeta,
		Accepts:     []string{OptSeed, "detect", "hub", "dense", "else", "resolution", "minsize"},
		New:         newBrew,
	},
}

// byName indexes registrations by canonical name and alias, and names
// holds the canonical names sorted. They are filled in init, not by
// initializers: brew's factory calls New, which reads byName, so an
// initializer built from registrations would be an initialization cycle.
var (
	byName map[string]*Registration
	names  []string
)

func init() {
	byName = make(map[string]*Registration)
	for i := range registrations {
		r := &registrations[i]
		byName[r.Name] = r
		for _, a := range r.Aliases {
			byName[a] = r
		}
		names = append(names, r.Name)
	}
	sort.Strings(names)
}

// List returns the canonical names of all registered algorithms, sorted.
func List() []string { return slices.Clone(names) }

// Registrations returns the metadata of every registered algorithm,
// sorted by canonical name. Consumers that used to hard-code per-name
// traits (is it seeded? is it heavyweight?) should branch on this.
func Registrations() []Info {
	infos := make([]Info, len(names))
	for i, name := range names {
		infos[i] = byName[name].info()
	}
	return infos
}

// Lookup returns the metadata of one algorithm (by canonical name or
// alias).
func Lookup(name string) (Info, bool) {
	r := byName[name]
	if r == nil {
		return Info{}, false
	}
	return r.info(), true
}

func (r *Registration) info() Info {
	return Info{
		Name:        r.Name,
		Aliases:     append([]string(nil), r.Aliases...),
		Description: r.Description,
		Class:       r.Class,
		Accepts:     append([]string(nil), r.Accepts...),
	}
}

// UnknownAlgorithmError reports a lookup of a name the registry does not
// know.
type UnknownAlgorithmError struct {
	Name  string
	Known []string // sorted canonical names
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("reorder: unknown algorithm %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// OptionError reports a bad spec parameter for an algorithm: either a key
// the algorithm does not accept (Value empty) or an accepted key carrying
// an out-of-range value.
type OptionError struct {
	Alg    string // algorithm name as given
	Option string // parameter key (OptSeed, ...)
	Value  string // offending value, "" for not-accepted errors
	Reason string
}

func (e *OptionError) Error() string {
	if e.Value == "" {
		return fmt.Sprintf("reorder: algorithm %q does not accept option %q (%s)",
			e.Alg, e.Option, e.Reason)
	}
	return fmt.Sprintf("reorder: algorithm %q option %s=%s invalid: %s",
		e.Alg, e.Option, e.Value, e.Reason)
}

// New builds the algorithm a spec describes ("ro", "go:window=7",
// "brew:detect=lp,else=go"; see ParseSpec). It is the only constructor:
// a malformed spec surfaces as *SpecError, an unknown name as
// *UnknownAlgorithmError, and a key the algorithm does not accept or an
// out-of-range value as *OptionError. The result's Spec() is the
// canonical form of its configuration.
func New(spec string) (Algorithm, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	reg := byName[s.Name]
	if reg == nil {
		return nil, &UnknownAlgorithmError{Name: s.Name, Known: List()}
	}
	for _, p := range s.Params {
		if !slices.Contains(reg.Accepts, p.Key) {
			return nil, &OptionError{Alg: s.Name, Option: p.Key,
				Reason: "accepts: " + acceptsList(reg.Accepts)}
		}
	}
	alg, err := reg.New(Params{alg: s.Name, params: s.Params})
	if err != nil {
		return nil, err // factories may return a partial value with their error
	}
	return alg, nil
}

func acceptsList(accepts []string) string {
	if len(accepts) == 0 {
		return "none"
	}
	s := append([]string(nil), accepts...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// MustNew is New that panics on error; intended for static algorithm sets
// over built-in specs.
func MustNew(spec string) Algorithm {
	alg, err := New(spec)
	if err != nil {
		panic(err)
	}
	return alg
}
