package graph

import (
	"errors"

	"graphlocality/internal/graph/segcsr"
	"graphlocality/internal/obs"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Out-of-core graphs. WriteSegmented serializes a *Graph into the
// segmented compressed container format (internal/graph/segcsr);
// OpenSegmented opens one as a SegGraph, a Topology whose rows are
// decoded on demand through a byte-budgeted segment cache — so the
// trace generators and simulators stream graphs larger than memory
// through exactly the code paths they use for in-RAM graphs.

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
	Obs obs.Recorder
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

// WriteSegmented writes g to path in the segmented container format via
// the crash-safe atomic protocol, returning the compression stats
// (including the bytes/edge metric).
func WriteSegmented(g *Graph, path string, opts SegmentedOptions) (segcsr.WriteStats, error) {
	out := segcsr.CSR{Off: g.outOff, Adj: g.outAdj}
	in := segcsr.CSR{Off: g.inOff, Adj: g.inAdj}
	if g.n == 0 && g.outOff == nil {
		// The zero Graph has nil arrays; the format wants len-1 offsets.
		out = segcsr.CSR{Off: []uint64{0}}
		in = segcsr.CSR{Off: []uint64{0}}
	}
	return segcsr.Write(opts.FS, path, out, in, opts.segOpts())
}

// MeasureSegmented returns the stats WriteSegmented would produce
// without touching disk — the cheap path to the bytes/edge metric.
func MeasureSegmented(g *Graph, opts SegmentedOptions) segcsr.WriteStats {
	out := segcsr.CSR{Off: g.outOff, Adj: g.outAdj}
	in := segcsr.CSR{Off: g.inOff, Adj: g.inAdj}
	if g.n == 0 && g.outOff == nil {
		out = segcsr.CSR{Off: []uint64{0}}
		in = segcsr.CSR{Off: []uint64{0}}
	}
	return segcsr.Measure(out, in, opts.segOpts())
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

// OpenSegmented opens the segmented graph at path on the real
// filesystem with default options.
func OpenSegmented(path string) (*SegGraph, error) {
	return OpenSegmentedOpts(path, SegmentedOptions{})
}

// OpenSegmentedOpts opens the segmented graph at path. The container
// table, metadata and segment indexes are fully verified here; a
// verification failure quarantines the file to path+store.CorruptSuffix
// (same discipline as the artifact store: a corrupt graph must not be
// half-readable on the next run) and returns the typed
// *store.IntegrityError with Quarantined set when the rename succeeded.
func OpenSegmentedOpts(path string, opts SegmentedOptions) (*SegGraph, error) {
	fsys := vfs.Of(opts.FS)
	f, err := segcsr.Open(fsys, path, opts.segOpts())
	var ie *store.IntegrityError
	if errors.As(err, &ie) {
		if qerr := fsys.Rename(path, path+store.CorruptSuffix); qerr == nil {
			ie.Quarantined = path + store.CorruptSuffix
		}
		return nil, ie
	}
	if err != nil {
		return nil, err
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

// CacheStats returns the decoded-segment cache's resident and peak byte
// counts and resident segment count.
func (sg *SegGraph) CacheStats() (resident, peak int64, segments int) {
	return sg.f.CacheStats()
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
