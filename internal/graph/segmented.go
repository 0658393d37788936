package graph

import (
	"fmt"
	"slices"

	"graphlocality/internal/graph/segcsr"
	"graphlocality/internal/obs"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Out-of-core graphs. WriteSegmented serializes a *Graph into the
// segmented compressed container format (internal/graph/segcsr), the
// repo's one on-disk graph format; OpenSegmented opens one as a
// SegGraph, a Topology whose rows are decoded on demand through a
// byte-budgeted segment cache — so the trace generators and simulators
// stream graphs larger than memory through exactly the code paths they
// use for in-RAM graphs. ReadSegmented loads one back into a *Graph.

// SegmentedOptions configures WriteSegmented and OpenSegmented.
type SegmentedOptions struct {
	// SegmentVertices is the vertices per segment when writing
	// (0 = segcsr.DefaultSegmentVertices).
	SegmentVertices int
	// CacheBytes budgets the decoded-segment cache when opening
	// (0 = segcsr.DefaultCacheBytes). Peak resident decoded bytes never
	// exceed the budget.
	CacheBytes int64
	// Obs receives cache instrumentation (nil = none).
	Obs *obs.Registry
	// FS is the filesystem seam (nil = the OS passthrough). Chaos tests
	// inject faults here.
	FS vfs.FS
}

func (o SegmentedOptions) segOpts() segcsr.Options {
	return segcsr.Options{
		SegmentVertices: o.SegmentVertices,
		CacheBytes:      o.CacheBytes,
		Obs:             o.Obs,
	}
}

// csrs returns g's CSR and CSC in segcsr's input form. The zero Graph
// has nil arrays; the format wants len-1 offsets.
func (g *Graph) csrs() (out, in segcsr.CSR) {
	if g.outOff == nil {
		empty := segcsr.CSR{Off: []uint64{0}}
		return empty, empty
	}
	return segcsr.CSR{Off: g.outOff, Adj: g.outAdj}, segcsr.CSR{Off: g.inOff, Adj: g.inAdj}
}

// WriteSegmented writes g to path in the segmented container format via
// the crash-safe atomic protocol, returning the compression stats
// (including the bytes/edge metric).
func WriteSegmented(g *Graph, path string, opts SegmentedOptions) (segcsr.WriteStats, error) {
	out, in := g.csrs()
	return segcsr.Write(opts.FS, path, out, in, opts.segOpts())
}

// MeasureSegmented returns the stats WriteSegmented would produce
// without touching disk — the cheap path to the bytes/edge metric.
func MeasureSegmented(g *Graph, opts SegmentedOptions) segcsr.WriteStats {
	out, in := g.csrs()
	return segcsr.Measure(out, in, opts.segOpts())
}

// ReadSegmented loads the segmented graph at path into memory. The CSR
// rows stream into FromCSR; the file's CSC rows are then checked against
// the CSC FromCSR rebuilt, so every payload byte is CRC-verified and the
// two directions must agree. A verification failure is a typed
// *store.IntegrityError and quarantines the file by store.Quarantine, as
// in OpenSegmented.
func ReadSegmented(path string) (*Graph, error) {
	// A one-pass load revisits no segment, so it caches none.
	sg, err := OpenSegmented(path, SegmentedOptions{CacheBytes: 1})
	if err != nil {
		return nil, err
	}
	g, err := sg.load()
	sg.Close()
	if err != nil {
		return nil, store.Quarantine(nil, path, err)
	}
	return g, nil
}

func (sg *SegGraph) load() (*Graph, error) {
	n := sg.NumVertices()
	off := make([]uint64, 0, uint64(n)+1)
	adj := make([]uint32, 0, sg.NumEdges())
	rows := sg.Rows(false, 0, n)
	for {
		_, o, a, ok := rows.Next()
		if !ok {
			break
		}
		off = append(off, o[:len(o)-1]...)
		adj = append(adj, a...)
	}
	if err := sg.Err(); err != nil {
		return nil, err
	}
	g, err := FromCSR(n, append(off, uint64(len(adj))), adj)
	if err != nil {
		return nil, &store.IntegrityError{Reason: err.Error()}
	}
	rows = sg.Rows(true, 0, n)
	for {
		base, o, a, ok := rows.Next()
		if !ok {
			break
		}
		// Offsets first: once they match, o indexes g.inAdj safely.
		if !slices.Equal(o, g.inOff[base:int(base)+len(o)]) || !slices.Equal(a, g.inAdj[o[0]:o[len(o)-1]]) {
			return nil, &store.IntegrityError{Reason: fmt.Sprintf("graph: CSC rows from vertex %d disagree with the CSR rows", base)}
		}
	}
	return g, sg.Err()
}

// SegGraph is a segment-backed Topology: dimensions and indexes in
// memory, adjacency on disk, decoded segments cached under a byte
// budget. Safe for concurrent readers. It is *not* a *Graph — code that
// needs random per-vertex access keeps taking *Graph; code that streams
// rows (the trace generators, the simulators) takes Topology and works
// with either.
type SegGraph struct {
	f *segcsr.File
}

// OpenSegmented opens the segmented graph at path. The container
// table, metadata and segment indexes are fully verified here; a
// verification failure is a typed *store.IntegrityError, and
// store.Quarantine moves a regular file to path+store.CorruptSuffix.
// Segment payloads are verified as cursors decode them; those failures
// latch on Err.
func OpenSegmented(path string, opts SegmentedOptions) (*SegGraph, error) {
	f, err := segcsr.Open(opts.FS, path, opts.segOpts())
	if err != nil {
		return nil, store.Quarantine(opts.FS, path, err)
	}
	return &SegGraph{f: f}, nil
}

// NumVertices returns |V|.
func (sg *SegGraph) NumVertices() uint32 { return sg.f.NumVertices() }

// NumEdges returns |E|.
func (sg *SegGraph) NumEdges() uint64 { return sg.f.NumEdges() }

// Rows implements Topology: stream decoded row spans of [lo, hi). On
// corruption discovered mid-stream the cursor ends early; Err reports
// the cause.
func (sg *SegGraph) Rows(in bool, lo, hi uint32) RowCursor {
	return sg.f.Rows(in, lo, hi)
}

// PartitionEdgeBalanced implements Topology with boundaries identical to
// *Graph.PartitionEdgeBalanced on the same graph — required for the
// emulated-parallel interleaved access stream to be representation-
// independent.
func (sg *SegGraph) PartitionEdgeBalanced(in bool, p int) []Range {
	return partitionByOffsetFn(func(v uint32) uint64 { return sg.f.EdgeOffset(in, v) }, sg.f.NumVertices(), p)
}

// Err returns the first verification failure any cursor or partition
// query on this graph has hit, or nil. Callers that just streamed a
// graph end-to-end check it once at the end.
func (sg *SegGraph) Err() error { return sg.f.Err() }

// Path returns the path the graph was opened from.
func (sg *SegGraph) Path() string { return sg.f.Path() }

// Close releases the underlying file.
func (sg *SegGraph) Close() error { return sg.f.Close() }

var _ Topology = (*SegGraph)(nil)
var _ Topology = (*Graph)(nil)
