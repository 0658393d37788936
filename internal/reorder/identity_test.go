package reorder_test

import (
	"reflect"
	"strings"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// nonDefault holds a valid non-default value for every spec key any
// registration accepts; a registration that accepts a key missing here
// fails TestRegistrySpecIdentity until the table learns it.
var nonDefault = map[string]string{
	reorder.OptSeed:       "7",
	reorder.OptWindow:     "3",
	reorder.OptEDR:        "2-40",
	reorder.OptCacheBytes: "4096",
	reorder.OptHubCap:     "sqrt",
	"detect":              "lp",
	"hub":                 "dbg",
	"dense":               "hubsort",
	"else":                "rcm",
	"resolution":          "2.5",
	"minsize":             "4",
	"workers":             "3",
}

// identityConfigs returns every registration built by name alone, by
// each alias, and with each accepted key set to a non-default value,
// plus specs that restate defaults and hand-built struct literals.
func identityConfigs(t *testing.T) []reorder.Algorithm {
	t.Helper()
	var specs []string
	for _, info := range reorder.Registrations() {
		specs = append(specs, info.Name)
		specs = append(specs, info.Aliases...)
		for _, key := range info.Accepts {
			v, ok := nonDefault[key]
			if !ok {
				t.Fatalf("%s accepts %q, which has no non-default test value", info.Name, key)
			}
			specs = append(specs, info.Name+":"+key+"="+v)
		}
	}
	specs = append(specs, "go:window=5", "hybrid:window=5", "ro:edr=0-0",
		"sb:cachebytes=0", "random:seed=1", "boba:seed=9",
		"brew:hub=hs,resolution=1.0,seed=1")
	algs := make([]reorder.Algorithm, 0, len(specs)+8)
	for _, spec := range specs {
		alg, err := reorder.New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		algs = append(algs, alg)
	}
	return append(algs,
		reorder.Identity{}, reorder.Random{}, reorder.Boba{Workers: -1},
		&reorder.GOrder{}, &reorder.GOrder{HubCap: true}, &reorder.Hybrid{}, &reorder.RabbitOrder{MaxCommunitySize: 9},
		&reorder.SlashBurn{KFraction: 0.02, CacheBytes: 100}, &reorder.Brew{Hub: "hs"})
}

// TestRegistrySpecIdentity pins Spec() as the identity of a configuration
// across the whole registry: Spec() is a fixpoint of New, rebuilding from
// it reproduces the permutation, and configurations with equal specs
// produce equal permutations. (Unequal specs may still agree, as boba's
// worker counts do.)
func TestRegistrySpecIdentity(t *testing.T) {
	g := gen.SocialNetwork(7, 6, 3)
	perms := make(map[string]graph.Permutation)
	for _, alg := range identityConfigs(t) {
		spec := alg.Spec()
		rebuilt, err := reorder.New(spec)
		if err != nil {
			t.Errorf("%s: New(Spec()) rejected %q: %v", alg.Name(), spec, err)
			continue
		}
		if got := rebuilt.Spec(); got != spec {
			t.Errorf("Spec not a fixpoint: %q -> %q", spec, got)
		}
		name, _, _ := strings.Cut(spec, ":")
		if info, ok := reorder.Lookup(name); !ok || info.Name != name {
			t.Errorf("Spec %q does not start with a canonical registry name", spec)
		}
		perm := reorder.Perm(alg, g)
		if !reflect.DeepEqual(perm, reorder.Perm(rebuilt, g)) {
			t.Errorf("%q: rebuilding from Spec() changed the permutation", spec)
		}
		if prev, seen := perms[spec]; seen && !reflect.DeepEqual(prev, perm) {
			t.Errorf("two configurations with spec %q produce different permutations", spec)
		}
		perms[spec] = perm
	}
}

// TestSpecDropsDefaults pins the canonical form on examples: aliases
// resolve, default-valued keys vanish and the rest sort by key.
func TestSpecDropsDefaults(t *testing.T) {
	for in, want := range map[string]string{
		"rabbit":                                 "ro",
		"ro:edr=0-0":                             "ro",
		"ro:cachebytes=65536,edr=2-100":          "ro:cachebytes=65536,edr=2-100",
		"rabbitorder:edr=2-100,cachebytes=65536": "ro:cachebytes=65536,edr=2-100",
		"gorder:window=5":                        "go",
		"go:window=7":                            "go:window=7",
		"gorder:window=5,hubcap=sqrt":            "go:hubcap=sqrt",
		"go:window=8,hubcap=sqrt":                "go:hubcap=sqrt,window=8",
		"slashburn++":                            "sb++",
		"random:seed=1":                          "random",
		"boba:seed=3,workers=4":                  "boba:workers=4",
		"graphbrew:seed=9,else=go":               "brew:else=go,seed=9",
		"brew:hub=hs,dense=ro":                   "brew",
		"bl":                                     "identity",
	} {
		if got := reorder.MustNew(in).Spec(); got != want {
			t.Errorf("MustNew(%q).Spec() = %q, want %q", in, got, want)
		}
	}
}
