package reorder_test

import (
	"fmt"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

func ExampleDegreeSort() {
	// Vertex 2 has the highest total degree and gets new ID 0.
	g := graph.FromEdges(3, []graph.Edge{
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 0, Dst: 2},
	})
	perm := reorder.Perm(reorder.DegreeSort{}, g)
	fmt.Println("new ID of vertex 2:", perm[2])
	// Output: new ID of vertex 2: 0
}

func ExampleRun() {
	g := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	})
	res := reorder.Run(reorder.Identity{}, g)
	fmt.Println(res.Algorithm, "perm is valid:", res.Perm.Validate() == nil)
	// Output: Initial perm is valid: true
}

func ExampleNew() {
	alg, err := reorder.New("rabbit")
	fmt.Println(alg.Name(), alg.Spec(), err)
	alg, err = reorder.New("gorder:window=7")
	fmt.Println(alg.Name(), alg.Spec(), err)
	_, err = reorder.New("nope")
	fmt.Println(err != nil)
	// Output:
	// RO ro <nil>
	// GO[window=7] go:window=7 <nil>
	// true
}
