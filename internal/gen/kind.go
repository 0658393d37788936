package gen

import (
	"fmt"
	"strings"

	"graphlocality/internal/graph"
)

// Kinds lists the generator families Generate accepts.
var Kinds = []string{"social", "web", "er", "ba"}

// Generate builds a graph of the named family with 2^scale vertices and
// about edgeFac edges per vertex: "social" (SocialNetwork), "web"
// (WebGraph with DefaultWebGraph), "er" (ErdosRenyi) or "ba"
// (PreferentialAttachment). It is the one kind switch behind the CLI's
// gen command and the server's graph specs, so both build the same graph
// from the same parameters. scale must lie in [1, 31], where 2^scale is a
// uint32 vertex count, and edgeFac must be at least 1.
func Generate(kind string, scale, edgeFac int, seed uint64) (*graph.Graph, error) {
	if scale < 1 || scale > 31 {
		return nil, fmt.Errorf("gen: scale %d out of range [1, 31]", scale)
	}
	if edgeFac < 1 {
		return nil, fmt.Errorf("gen: edge factor %d must be at least 1", edgeFac)
	}
	n := uint32(1) << scale
	switch kind {
	case "social":
		return SocialNetwork(scale, edgeFac, seed), nil
	case "web":
		return WebGraph(DefaultWebGraph(n, edgeFac, seed)), nil
	case "er":
		return ErdosRenyi(n, (1<<scale)*edgeFac, seed), nil
	case "ba":
		return PreferentialAttachment(n, edgeFac, seed), nil
	}
	return nil, fmt.Errorf("gen: unknown kind %q (want %s)", kind, KindList())
}

// KindList renders Kinds for messages: "social, web, er or ba".
func KindList() string {
	last := len(Kinds) - 1
	return strings.Join(Kinds[:last], ", ") + " or " + Kinds[last]
}
