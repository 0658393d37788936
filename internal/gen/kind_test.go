package gen

import (
	"reflect"
	"strings"
	"testing"

	"graphlocality/internal/graph"
)

// TestGenerateMatchesDirectGenerators pins Generate to the generator it
// names, array for array: served results and their cache keys depend on
// every kind building exactly the graph it always has.
func TestGenerateMatchesDirectGenerators(t *testing.T) {
	const scale, edgeFac, seed = 8, 6, 11
	n := uint32(1) << scale
	cases := []struct {
		kind string
		want *graph.Graph
	}{
		{"social", SocialNetwork(scale, edgeFac, seed)},
		{"web", WebGraph(DefaultWebGraph(n, edgeFac, seed))},
		{"er", ErdosRenyi(n, int(n)*edgeFac, seed)},
		{"ba", PreferentialAttachment(n, edgeFac, seed)},
	}
	if len(cases) != len(Kinds) {
		t.Fatalf("table covers %d kinds, Kinds lists %d", len(cases), len(Kinds))
	}
	for i, c := range cases {
		if Kinds[i] != c.kind {
			t.Fatalf("Kinds[%d] = %q, want %q", i, Kinds[i], c.kind)
		}
		got, err := Generate(c.kind, scale, edgeFac, seed)
		if err != nil {
			t.Fatalf("Generate(%q): %v", c.kind, err)
		}
		if got.NumVertices() != c.want.NumVertices() ||
			!reflect.DeepEqual(got.OutOffsets(), c.want.OutOffsets()) ||
			!reflect.DeepEqual(got.OutEdges(), c.want.OutEdges()) ||
			!reflect.DeepEqual(got.InOffsets(), c.want.InOffsets()) ||
			!reflect.DeepEqual(got.InEdges(), c.want.InEdges()) {
			t.Errorf("Generate(%q) differs from the direct generator", c.kind)
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	g, err := Generate("lattice", 4, 2, 1)
	if err == nil || g != nil {
		t.Fatalf("Generate(lattice) = %v, %v; want an error", g, err)
	}
	if !strings.Contains(err.Error(), `"lattice"`) || !strings.Contains(err.Error(), KindList()) {
		t.Errorf("error should name the kind and list the known ones: %v", err)
	}
}
