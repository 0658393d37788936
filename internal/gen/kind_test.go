package gen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestGenerateRejectsBadScaleOrEdgeFactor: a scale outside [1, 31] or an
// edge factor below 1 is an error, not a hang (scale 0), a panic (a
// negative scale or edge factor) or an empty graph (a scale whose 2^scale
// wraps a uint32). Each call runs under a deadline so that a generator
// that never returns fails the test instead of stalling it.
func TestGenerateRejectsBadScaleOrEdgeFactor(t *testing.T) {
	cases := []struct {
		kind           string
		scale, edgeFac int
	}{
		{"social", 0, 8}, {"web", 0, 8}, {"er", 0, 8}, {"ba", 0, 8},
		{"social", -1, 8}, {"er", -1, 8},
		{"er", 32, 8}, {"er", 40, 8},
		{"social", 4, 0}, {"social", 4, -1}, {"web", 4, -1}, {"er", 4, -1}, {"ba", 4, 0},
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			g, err := Generate(c.kind, c.scale, c.edgeFac, 1)
			if err == nil {
				err = fmt.Errorf("no error, built %v", g)
			} else if g != nil {
				err = fmt.Errorf("error %v came with a graph", err)
			} else {
				err = nil
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Generate(%q, scale %d, edgefac %d): %v", c.kind, c.scale, c.edgeFac, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("Generate(%q, scale %d, edgefac %d) did not return within 5s", c.kind, c.scale, c.edgeFac)
		}
	}
}
