package graph

import "fmt"

// Permutation is a relabeling array as produced by a reordering algorithm
// (§II-E): it is indexed by the old ID of a vertex and specifies the new ID.
type Permutation []uint32

// Identity returns the identity permutation of n vertices.
func Identity(n uint32) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	_, err := p.checkedInverse()
	return err
}

// checkedInverse returns the inverse of p, or an error naming the first
// new ID that is out of range or assigned twice.
func (p Permutation) checkedInverse() (Permutation, error) {
	inv := make(Permutation, len(p))
	for i := range inv {
		inv[i] = NoVertex
	}
	for old, nw := range p {
		if int(nw) >= len(p) {
			return nil, fmt.Errorf("permutation: new ID %d of vertex %d out of range (n=%d)", nw, old, len(p))
		}
		if inv[nw] != NoVertex {
			return nil, fmt.Errorf("permutation: new ID %d assigned twice", nw)
		}
		inv[nw] = uint32(old)
	}
	return inv, nil
}

// Relabel rebuilds the graph under the relabeling array perm (old→new), as
// a reordering algorithm's final step (§II-E): CSR and CSC are rebuilt with
// the new vertex IDs and sorted adjacency. It panics unless perm is a
// bijection on [0, |V|).
//
// New vertex s takes the in-degree of old vertex inv[s], which gives the
// CSC offsets directly. Scattering the new sources in ascending order
// into CSC buckets perm[u] fills every bucket sorted, and one transpose
// gives the sorted CSR: no edge list and no comparison sort.
func (g *Graph) Relabel(perm Permutation) *Graph {
	if len(perm) != int(g.n) {
		panic(fmt.Sprintf("graph: permutation length %d != |V| %d", len(perm), g.n))
	}
	inv, err := perm.checkedInverse()
	if err != nil {
		panic("graph: Relabel: " + err.Error())
	}
	inOff := make([]uint64, g.n+1)
	for s, v := range inv {
		inOff[s+1] = inOff[s] + uint64(g.InDegree(v))
	}
	inAdj := make([]uint32, len(g.inAdj))
	for s, v := range inv {
		for _, u := range g.OutNeighbors(v) {
			d := perm[u]
			inAdj[inOff[d]] = uint32(s)
			inOff[d]++
		}
	}
	restoreOffsets(inOff)
	h := &Graph{n: g.n, inOff: inOff, inAdj: inAdj}
	h.outOff, h.outAdj = transpose(g.n, inOff, inAdj)
	return h
}
