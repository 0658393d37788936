package reorder

import (
	"context"
	"strings"
	"testing"

	"graphlocality/internal/gen"
)

func TestNewUnknownAlgorithm(t *testing.T) {
	_, err := New("nope")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "known:") {
		t.Errorf("error should name the algorithm and list known ones: %v", err)
	}
}

func TestNewRejectsUnknownOption(t *testing.T) {
	_, err := New("go:seed=3")
	if err == nil {
		t.Fatal("go accepted a seed option it does not consume")
	}
	if !strings.Contains(err.Error(), OptSeed) {
		t.Errorf("error should name the offending option: %v", err)
	}
	if _, err := New("identity:cachebytes=1"); err == nil {
		t.Error("identity accepted cachebytes")
	}
}

func TestRegisterDuplicateErrors(t *testing.T) {
	factory := func(Params) (Algorithm, error) { return Identity{}, nil }
	if err := Register(Registration{Name: "identity", New: factory}); err == nil {
		t.Error("duplicate canonical name accepted")
	}
	// A fresh name whose alias collides with an existing key must also fail
	// and must not leave a half-registered entry behind.
	if err := Register(Registration{Name: "brandnew-x", Aliases: []string{"gorder"}, New: factory}); err == nil {
		t.Error("alias collision accepted")
	}
	if _, err := New("brandnew-x"); err == nil {
		t.Error("failed registration left the canonical name resolvable")
	}
	if err := Register(Registration{Name: "", New: factory}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Registration{Name: "brandnew-y"}); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestListCoversBuiltins(t *testing.T) {
	names := List()
	want := []string{"bfs", "dbg", "degsort", "go", "hubcluster", "hubsort",
		"hybrid", "identity", "random", "rcm", "ro", "sb", "sb++", "boba", "brew"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("List() missing %q", w)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List() not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestOptionsReachFactories(t *testing.T) {
	gw := MustNew("go:window=8").(*GOrder)
	if gw.Window != 8 {
		t.Errorf("Window = %d, want 8", gw.Window)
	}
	ro := MustNew("ro:edr=2-50").(*RabbitOrder)
	if ro.MinDegree != 2 || ro.MaxDegree != 50 || ro.Name() != "RO-EDR[edr=2-50]" {
		t.Errorf("EDR options not applied: %+v (%s)", ro, ro.Name())
	}
	sb := MustNew("sb:cachebytes=512").(*SlashBurn)
	if sb.CacheBytes != 512 || sb.Name() != "SB-CA[cachebytes=512]" {
		t.Errorf("cachebytes option not applied: %+v (%s)", sb, sb.Name())
	}
	roCA := MustNew("ro:cachebytes=256").(*RabbitOrder)
	if roCA.MaxCommunitySize != 256/8 {
		t.Errorf("MaxCommunitySize = %d, want %d", roCA.MaxCommunitySize, 256/8)
	}
}

func TestRandomSeedOption(t *testing.T) {
	g := gen.Ring(128)
	def := Perm(MustNew("random"), g)
	one := Perm(Random{Seed: 1}, g)
	if !equalPerm(def, one) {
		t.Error("default random seed is not 1")
	}
	other := Perm(MustNew("random:seed=42"), g)
	if equalPerm(def, other) {
		t.Error("seed=42 did not change the shuffle")
	}
}

// TestLightOrderingsIgnoreContext checks the cheap orderings run to
// completion under a dead context and never fail.
func TestLightOrderingsIgnoreContext(t *testing.T) {
	g := gen.Ring(32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []string{"random", "degsort", "hubsort", "hubcluster", "dbg", "rcm", "bfs", "boba"} {
		perm, err := MustNew(spec).Reorder(ctx, g)
		if err != nil {
			t.Fatalf("%s returned error under a dead context: %v", spec, err)
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on unknown algorithm")
		}
	}()
	MustNew("definitely-not-registered")
}
