package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge lists: one "src dst" pair per line, '#'- or '%'-prefixed
// comment lines skipped, the vertex count max ID + 1. The binary on-disk
// format is the segmented container (segmented.go).

// WriteEdgeList writes the graph as a text edge list ("src dst" per line).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# graphlocality edge list |V|=%d |E|=%d\n", g.n, g.NumEdges())
	for v := uint32(0); v < g.n; v++ {
		for _, u := range g.OutNeighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxEdgeListVertices bounds the vertex count ReadEdgeList accepts
// (max ID + 1). The text format is meant for datasets that are edited and
// inspected by hand; a stray huge ID must not translate into a huge
// allocation. Larger graphs should use the segmented format or FromEdges.
const MaxEdgeListVertices = 1 << 24

// ReadEdgeList parses a text edge list. Lines starting with '#' or '%' are
// comments; fields may be separated by any whitespace. The vertex count is
// max ID + 1 and must not exceed MaxEdgeListVertices.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	var maxID uint32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", line, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", line, err)
		}
		if m := max64(src, dst); m >= MaxEdgeListVertices {
			return nil, fmt.Errorf("graph: line %d: vertex ID %d exceeds the text-format limit %d",
				line, m, MaxEdgeListVertices-1)
		}
		e := Edge{uint32(src), uint32(dst)}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return FromEdges(0, nil), nil
	}
	return FromEdges(maxID+1, edges), nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
