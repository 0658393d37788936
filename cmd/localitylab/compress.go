package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"graphlocality/internal/graph"
	"graphlocality/internal/graph/segcsr"
	"graphlocality/internal/reorder"
)

// rawCSRBytesPerEdge is the uncompressed adjacency cost: one uint32
// neighbour ID per edge. The offsets array is amortized over edges and
// identical for every labeling, so 4 B/edge is the fair baseline for
// the compression ratio.
const rawCSRBytesPerEdge = 4.0

// compressRow is one labeling's compression measurement.
type compressRow struct {
	Label        string
	BytesPerEdge float64
	Segments     int
	PayloadBytes uint64 // out-direction payload (the B/edge numerator)
}

// compressReport measures the segmented delta-gap/varint encoding of g
// as labeled, then once per -algs spec after relabeling. Specs run in
// the order given; a labeling only changes gap sizes, never the graph,
// so rows are directly comparable.
func compressReport(ctx context.Context, g *graph.Graph, specs []string, opts graph.SegmentedOptions) ([]compressRow, error) {
	measure := func(label string, g *graph.Graph) compressRow {
		st := graph.MeasureSegmented(g, opts)
		return compressRow{
			Label:        label,
			BytesPerEdge: st.BytesPerEdge(),
			Segments:     st.Segments,
			PayloadBytes: st.OutPayloadBytes,
		}
	}
	rows := []compressRow{measure("(input)", g)}
	for _, spec := range specs {
		alg, err := reorder.New(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		res, err := reorder.RunContext(ctx, alg, g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, measure(alg.Name(), g.Relabel(res.Perm)))
	}
	return rows, nil
}

// cmdCompress reports the segmented compressed-CSR footprint of a graph
// (internal/graph/segcsr: delta-gap + varint edge lists): bytes/edge of
// the input labeling and, with -algs, of each reordering — the
// storage-side locality metric. -out additionally writes the segmented
// container of the input labeling and reloads it to verify.
func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	out := fs.String("out", "", "also write the segmented container here (reloaded to verify)")
	segVerts := fs.Int("segverts", 0, "vertices per segment (0 = default 16384)")
	algsFlag := fs.String("algs", "", "comma-separated RA specs to relabel with before measuring (e.g. ro,go:window=7)")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	var specs []string
	if *algsFlag != "" {
		specs = strings.Split(*algsFlag, ",")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := graph.SegmentedOptions{SegmentVertices: *segVerts}
	rows, err := compressReport(ctx, g, specs, opts)
	if err != nil {
		return err
	}

	effSeg := *segVerts
	if effSeg <= 0 {
		effSeg = segcsr.DefaultSegmentVertices
	}
	fmt.Printf("graph: %d vertices, %d edges, %d segments of %d vertices\n",
		g.NumVertices(), g.NumEdges(), rows[0].Segments, effSeg)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RA\tB/edge\tvs raw\tpayload")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.1f%%\t%d\n",
			r.Label, r.BytesPerEdge, 100*r.BytesPerEdge/rawCSRBytesPerEdge, r.PayloadBytes)
	}
	w.Flush()

	if *out == "" {
		return nil
	}
	st, err := graph.WriteSegmented(g, *out, opts)
	if err != nil {
		return err
	}
	h, err := graph.ReadSegmented(*out)
	if err != nil {
		return fmt.Errorf("verify %s: %w", *out, err)
	}
	if !h.Equal(g) {
		return fmt.Errorf("verify %s: reloaded graph differs from input", *out)
	}
	fmt.Printf("wrote %s: %d segments, %d payload + %d index bytes (verified)\n",
		*out, st.Segments, st.OutPayloadBytes+st.InPayloadBytes, st.IndexBytes)
	return nil
}
