package reorder

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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

var registry = struct {
	sync.RWMutex
	byName map[string]*Registration // canonical names and aliases
	names  []string                 // canonical names, registration order
}{byName: make(map[string]*Registration)}

// Register adds an algorithm to the registry. Re-registering a name or
// alias that is already taken is an error.
func Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("reorder: Register with empty name")
	}
	if r.New == nil {
		return fmt.Errorf("reorder: Register(%q) with nil factory", r.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	keys := append([]string{r.Name}, r.Aliases...)
	for _, k := range keys {
		if _, dup := registry.byName[k]; dup {
			return fmt.Errorf("reorder: algorithm %q already registered", k)
		}
	}
	reg := r
	for _, k := range keys {
		registry.byName[k] = &reg
	}
	registry.names = append(registry.names, r.Name)
	return nil
}

// MustRegister is Register that panics on error; intended for package
// init blocks.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// List returns the canonical names of all registered algorithms, sorted.
func List() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := append([]string(nil), registry.names...)
	sort.Strings(names)
	return names
}

// Registrations returns the metadata of every registered algorithm,
// sorted by canonical name. Consumers that used to hard-code per-name
// traits (is it seeded? is it heavyweight?) should branch on this.
func Registrations() []Info {
	registry.RLock()
	defer registry.RUnlock()
	infos := make([]Info, 0, len(registry.names))
	for _, name := range registry.names {
		r := registry.byName[name]
		infos = append(infos, r.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Lookup returns the metadata of one algorithm (by canonical name or
// alias).
func Lookup(name string) (Info, bool) {
	registry.RLock()
	r := registry.byName[name]
	registry.RUnlock()
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
	registry.RLock()
	reg := registry.byName[s.Name]
	registry.RUnlock()
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
