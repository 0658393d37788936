package segcsr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"graphlocality/internal/obs"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Options configures writing and opening segmented graphs.
type Options struct {
	// SegmentVertices is the number of consecutive vertices per segment
	// (0 = DefaultSegmentVertices). Write persists it in segmeta; Open
	// ignores it (the file knows its own geometry).
	SegmentVertices int
	// CacheBytes budgets the decoded-segment LRU cache in bytes
	// (0 = DefaultCacheBytes). Segments whose decoded size alone
	// exceeds the budget are served uncached, so resident bytes never
	// exceed the budget.
	CacheBytes int64
	// Obs receives the cache/read instrumentation (nil = none).
	Obs *obs.Registry
}

func (o Options) segVerts() uint32 {
	if o.SegmentVertices < 1 {
		return DefaultSegmentVertices
	}
	return uint32(o.SegmentVertices)
}

func (o Options) cacheBytes() int64 {
	if o.CacheBytes <= 0 {
		return DefaultCacheBytes
	}
	return o.CacheBytes
}

// WriteStats summarizes one written (or measured) segmented graph.
type WriteStats struct {
	NumVertices uint32
	NumEdges    uint64
	Segments    int
	// OutPayloadBytes / InPayloadBytes are the encoded segment payload
	// sizes per direction (excluding indexes and container framing).
	OutPayloadBytes uint64
	InPayloadBytes  uint64
	// IndexBytes covers both per-segment indexes.
	IndexBytes uint64
}

// BytesPerEdge is the compression metric the locality analysis reports
// per reordering: encoded CSR payload bytes per edge (the CSC direction
// mirrors it; one direction keeps the metric comparable to raw CSR's 4
// bytes/edge). Zero-edge graphs report 0.
func (s WriteStats) BytesPerEdge() float64 {
	if s.NumEdges == 0 {
		return 0
	}
	return float64(s.OutPayloadBytes) / float64(s.NumEdges)
}

// validateCSR checks the structural invariants Write depends on.
func validateCSR(name string, c CSR, n uint32, m uint64) error {
	if len(c.Off) != int(n)+1 {
		return fmt.Errorf("segcsr: %s offsets length %d, want %d", name, len(c.Off), n+1)
	}
	if c.Off[0] != 0 || c.Off[n] != m || uint64(len(c.Adj)) != m {
		return fmt.Errorf("segcsr: %s offsets ends [%d,%d], adjacency %d, want [0,%d]", name, c.Off[0], c.Off[n], len(c.Adj), m)
	}
	for v := uint32(0); v < n; v++ {
		if c.Off[v] > c.Off[v+1] {
			return fmt.Errorf("segcsr: %s offsets not monotone at %d", name, v)
		}
	}
	return nil
}

// Write encodes the graph given by its raw CSR (out) and CSC (in)
// arrays into a segmented container at path, through the crash-safe
// atomic write protocol on fsys (nil = the OS passthrough) — so a crash
// mid-write leaves the old file (or nothing), never a torn container,
// and the vfs fault seam covers every byte that goes to disk.
//
// Segments are encoded one at a time, so peak writer memory is the
// compressed output plus one segment's scratch — not a second copy of
// the graph.
func Write(fsys vfs.FS, path string, out, in CSR, opts Options) (WriteStats, error) {
	n := uint32(len(out.Off) - 1)
	if len(out.Off) == 0 {
		return WriteStats{}, fmt.Errorf("segcsr: empty offsets")
	}
	m := uint64(len(out.Adj))
	if err := validateCSR("out", out, n, m); err != nil {
		return WriteStats{}, err
	}
	if err := validateCSR("in", in, n, m); err != nil {
		return WriteStats{}, err
	}
	segVerts := opts.segVerts()
	nsegs := int((uint64(n) + uint64(segVerts) - 1) / uint64(segVerts))

	meta := make([]byte, metaBytes)
	binary.LittleEndian.PutUint32(meta[0:], FormatVersion)
	binary.LittleEndian.PutUint32(meta[4:], n)
	binary.LittleEndian.PutUint64(meta[8:], m)
	binary.LittleEndian.PutUint32(meta[16:], segVerts)
	binary.LittleEndian.PutUint32(meta[20:], uint32(nsegs))

	encodeDir := func(c CSR) (idx, data []byte) {
		idx = make([]byte, 0, nsegs*idxEntryBytes)
		var scratch []byte
		for s := 0; s < nsegs; s++ {
			lo := uint32(s) * segVerts
			hi := lo + segVerts
			if hi > n || hi < lo { // hi<lo: uint32 overflow on huge segVerts
				hi = n
			}
			scratch = appendSegment(scratch[:0], c, lo, hi)
			var e [idxEntryBytes]byte
			binary.LittleEndian.PutUint64(e[0:], c.Off[lo])
			binary.LittleEndian.PutUint64(e[8:], uint64(len(data)))
			binary.LittleEndian.PutUint32(e[16:], uint32(len(scratch)))
			binary.LittleEndian.PutUint32(e[20:], crc32.Checksum(scratch, store.Castagnoli))
			idx = append(idx, e[:]...)
			data = append(data, scratch...)
		}
		return idx, data
	}
	outIdx, outData := encodeDir(out)
	inIdx, inData := encodeDir(in)

	sections := []store.Section{
		{Name: SectionMeta, Data: meta},
		{Name: SectionIdxOut, Data: outIdx},
		{Name: SectionIdxIn, Data: inIdx},
		{Name: SectionDataOut, Data: outData},
		{Name: SectionDataIn, Data: inData},
	}
	err := vfs.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		return store.WriteContainer(w, sections)
	})
	if err != nil {
		return WriteStats{}, err
	}
	return WriteStats{
		NumVertices:     n,
		NumEdges:        m,
		Segments:        nsegs,
		OutPayloadBytes: uint64(len(outData)),
		InPayloadBytes:  uint64(len(inData)),
		IndexBytes:      uint64(len(outIdx) + len(inIdx)),
	}, nil
}

// Measure returns the stats Write would produce for the given CSR/CSC
// without touching disk — the cheap path for the bytes/edge metric.
func Measure(out, in CSR, opts Options) WriteStats {
	n := uint32(len(out.Off) - 1)
	segVerts := opts.segVerts()
	nsegs := 0
	if n > 0 {
		nsegs = int((uint64(n) + uint64(segVerts) - 1) / uint64(segVerts))
	}
	return WriteStats{
		NumVertices:     n,
		NumEdges:        uint64(len(out.Adj)),
		Segments:        nsegs,
		OutPayloadBytes: EncodedBytes(out),
		InPayloadBytes:  EncodedBytes(in),
		IndexBytes:      uint64(2 * nsegs * idxEntryBytes),
	}
}
