package segcsr

import (
	"encoding/binary"
	"hash/crc32"
	"sync"

	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// idxEntry is one parsed per-segment index record.
type idxEntry struct {
	firstEdge  uint64 // absolute index of the segment's first edge
	payloadOff uint64 // offset within the direction's data section
	payloadLen uint32
	crc        uint32 // CRC32C of the payload bytes
	edges      uint64 // derived: edges in this segment
}

// File is an open segmented graph: verified metadata and indexes in
// memory, payload sections on disk behind ReadAt, decoded segments in a
// shared byte-budgeted LRU. Safe for concurrent readers; the first
// verification failure seen by any reader is latched and visible via
// Err.
type File struct {
	cf       *store.ContainerFile
	n        uint32
	m        uint64
	segVerts uint32
	idx      [2][]idxEntry // [0]=out, [1]=in
	data     [2]readerAt
	cache    *segCache

	mu       sync.Mutex
	firstErr error
}

type readerAt interface {
	ReadAt(p []byte, off int64) (int, error)
}

// Open opens and verifies the segmented graph at path through fsys
// (nil = the OS passthrough). The container table, segmeta and both
// segment indexes are fully verified here; segment payloads are only
// read — and CRC-verified — on demand. All verification failures are
// typed *store.IntegrityError.
func Open(fsys vfs.FS, path string, opts Options) (*File, error) {
	cf, err := store.OpenContainer(fsys, path)
	if err != nil {
		return nil, err
	}
	f, err := newFile(cf, opts)
	if err != nil {
		cf.Close()
		if ie, ok := err.(*store.IntegrityError); ok && ie.Path == "" {
			ie.Path = path
		}
		return nil, err
	}
	return f, nil
}

func newFile(cf *store.ContainerFile, opts Options) (*File, error) {
	meta, err := cf.ReadSection(SectionMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != metaBytes {
		return nil, corruptf("segmeta is %d bytes, want %d", len(meta), metaBytes)
	}
	if v := binary.LittleEndian.Uint32(meta[0:]); v != FormatVersion {
		return nil, corruptf("unsupported format version %d (want %d)", v, FormatVersion)
	}
	f := &File{
		cf:       cf,
		n:        binary.LittleEndian.Uint32(meta[4:]),
		m:        binary.LittleEndian.Uint64(meta[8:]),
		segVerts: binary.LittleEndian.Uint32(meta[16:]),
	}
	nsegs := binary.LittleEndian.Uint32(meta[20:])
	if f.segVerts == 0 {
		return nil, corruptf("segmeta claims 0 vertices per segment")
	}
	wantSegs := (uint64(f.n) + uint64(f.segVerts) - 1) / uint64(f.segVerts)
	if uint64(nsegs) != wantSegs {
		return nil, corruptf("segmeta claims %d segments, geometry implies %d", nsegs, wantSegs)
	}
	if nsegs == 0 && f.m != 0 {
		// No segment index bounds |E| by payload bytes here.
		return nil, corruptf("segmeta claims %d edges over 0 vertices", f.m)
	}
	for d, names := range [2][2]string{{SectionIdxOut, SectionDataOut}, {SectionIdxIn, SectionDataIn}} {
		raw, err := cf.ReadSection(names[0])
		if err != nil {
			return nil, err
		}
		dataSize, ok := cf.SectionSize(names[1])
		if !ok {
			return nil, corruptf("missing section %q", names[1])
		}
		idx, err := f.parseIndex(names[0], raw, int(nsegs), dataSize)
		if err != nil {
			return nil, err
		}
		sr, err := cf.SectionReader(names[1])
		if err != nil {
			return nil, err
		}
		f.idx[d] = idx
		f.data[d] = sr
	}
	f.cache = newSegCache(opts.cacheBytes(), opts.Obs)
	return f, nil
}

// parseIndex decodes and fully validates one direction's segment index:
// entry count, contiguous payload extents covering the data section
// exactly, monotone first-edge values ending at |E|, and a minimum
// payload size (1 byte per vertex degree + 1 byte per edge gap) that
// bounds decode allocations by real file bytes even under a hostile
// index.
func (f *File) parseIndex(name string, raw []byte, nsegs int, dataSize uint64) ([]idxEntry, error) {
	if len(raw) != nsegs*idxEntryBytes {
		return nil, corruptf("%s is %d bytes, want %d for %d segments", name, len(raw), nsegs*idxEntryBytes, nsegs)
	}
	idx := make([]idxEntry, nsegs)
	var off uint64
	for i := range idx {
		e := raw[i*idxEntryBytes:]
		idx[i].firstEdge = binary.LittleEndian.Uint64(e[0:])
		idx[i].payloadOff = binary.LittleEndian.Uint64(e[8:])
		idx[i].payloadLen = binary.LittleEndian.Uint32(e[16:])
		idx[i].crc = binary.LittleEndian.Uint32(e[20:])
		if idx[i].payloadOff != off {
			return nil, corruptf("%s segment %d: payload offset %d, want contiguous %d", name, i, idx[i].payloadOff, off)
		}
		off += uint64(idx[i].payloadLen)
		if idx[i].firstEdge > f.m {
			return nil, corruptf("%s segment %d: first edge %d past |E|=%d", name, i, idx[i].firstEdge, f.m)
		}
		if i == 0 && idx[i].firstEdge != 0 {
			return nil, corruptf("%s segment 0: first edge %d, want 0", name, idx[i].firstEdge)
		}
		if i > 0 {
			if idx[i].firstEdge < idx[i-1].firstEdge {
				return nil, corruptf("%s segment %d: first edge %d below predecessor's %d", name, i, idx[i].firstEdge, idx[i-1].firstEdge)
			}
			idx[i-1].edges = idx[i].firstEdge - idx[i-1].firstEdge
		}
	}
	if nsegs > 0 {
		idx[nsegs-1].edges = f.m - idx[nsegs-1].firstEdge
	}
	if off != dataSize {
		return nil, corruptf("%s extents cover %d bytes, data section has %d", name, off, dataSize)
	}
	for i := range idx {
		lo, hi := f.segRange(i)
		if minBytes := uint64(hi-lo) + idx[i].edges; uint64(idx[i].payloadLen) < minBytes {
			return nil, corruptf("%s segment %d: payload %d bytes cannot hold %d vertices and %d edges",
				name, i, idx[i].payloadLen, hi-lo, idx[i].edges)
		}
	}
	return idx, nil
}

// segRange returns the vertex range [lo, hi) segment seg covers.
func (f *File) segRange(seg int) (lo, hi uint32) {
	l := uint64(seg) * uint64(f.segVerts)
	h := l + uint64(f.segVerts)
	if h > uint64(f.n) {
		h = uint64(f.n)
	}
	return uint32(l), uint32(h)
}

// NumVertices returns |V|.
func (f *File) NumVertices() uint32 { return f.n }

// NumEdges returns |E| (per direction).
func (f *File) NumEdges() uint64 { return f.m }

// SegmentVertices returns the per-segment vertex count.
func (f *File) SegmentVertices() uint32 { return f.segVerts }

// Segments returns the number of segments per direction.
func (f *File) Segments() int { return len(f.idx[0]) }

// Path returns the path the graph was opened from.
func (f *File) Path() string { return f.cf.Path() }

func dirIdx(in bool) int {
	if in {
		return 1
	}
	return 0
}

// record latches the first verification failure seen by any reader.
func (f *File) record(err error) {
	f.mu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.mu.Unlock()
}

// Err returns the first verification failure any cursor or offset query
// on this file has hit (cursors end their streams early on corruption;
// this is where the cause surfaces), or nil.
func (f *File) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// Segment returns the decoded segment seg of the given direction,
// serving from the cache when resident. The payload is CRC-verified
// against the index before decoding; decode re-checks every structural
// claim. Errors are typed *store.IntegrityError, but for an I/O error
// (store.ReadFailed), and latched on the File.
func (f *File) Segment(in bool, seg int) (*segment, error) {
	d := dirIdx(in)
	if seg < 0 || seg >= len(f.idx[d]) {
		return nil, corruptf("segment %d out of range (have %d)", seg, len(f.idx[d]))
	}
	k := segKey{in: in, seg: seg}
	if s := f.cache.get(k); s != nil {
		return s, nil
	}
	e := f.idx[d][seg]
	payload := make([]byte, e.payloadLen)
	if _, err := f.data[d].ReadAt(payload, int64(e.payloadOff)); err != nil {
		err = store.ReadFailed(err, "segcsr: segment %d: reading payload", seg)
		f.record(err)
		return nil, err
	}
	if got := crc32.Checksum(payload, store.Castagnoli); got != e.crc {
		err := corruptf("segment %d: payload checksum mismatch (index %08x, computed %08x)", seg, e.crc, got)
		f.record(err)
		return nil, err
	}
	lo, hi := f.segRange(seg)
	off, adj, err := decodeSegment(payload, lo, hi, f.n, e.firstEdge, e.edges)
	if err != nil {
		f.record(err)
		return nil, err
	}
	s := &segment{off: off, adj: adj}
	f.cache.put(k, s)
	return s, nil
}

// EdgeOffset returns the absolute edge offset of vertex v (v = |V|
// yields |E|), decoding v's segment on demand. On corruption it latches
// the error on the File and returns 0 — callers batching many queries
// check Err once at the end.
func (f *File) EdgeOffset(in bool, v uint32) uint64 {
	if v >= f.n {
		return f.m
	}
	seg := int(v / f.segVerts)
	s, err := f.Segment(in, seg)
	if err != nil {
		return 0
	}
	lo, _ := f.segRange(seg)
	return s.off[v-lo]
}

// Rows returns a cursor over the rows of vertices [lo, hi) in the given
// direction (in=false: CSR out-edges; in=true: CSC in-edges), decoding
// segments on demand. Spans never cross a segment, so each Next returns
// a zero-copy view into one decoded segment.
func (f *File) Rows(in bool, lo, hi uint32) *Cursor {
	if hi > f.n {
		hi = f.n
	}
	if lo > hi {
		lo = hi
	}
	return &Cursor{f: f, in: in, v: lo, hi: hi}
}

// Cursor streams contiguous row spans out of decoded segments. It
// satisfies graph.RowCursor's contract: off holds absolute offsets (len
// = span vertices + 1) and adj[0] sits at absolute edge index off[0].
// On corruption the stream ends early (Next returns false) and Err —
// and the File's Err — report the cause.
type Cursor struct {
	f   *File
	in  bool
	v   uint32
	hi  uint32
	err error
}

// Next returns the next span, or false at the end of the range or on a
// verification failure.
func (c *Cursor) Next() (base uint32, off []uint64, adj []uint32, ok bool) {
	if c.err != nil || c.v >= c.hi {
		return 0, nil, nil, false
	}
	seg := int(c.v / c.f.segVerts)
	s, err := c.f.Segment(c.in, seg)
	if err != nil {
		c.err = err
		return 0, nil, nil, false
	}
	segLo, segHi := c.f.segRange(seg)
	spanHi := segHi
	if spanHi > c.hi {
		spanHi = c.hi
	}
	base = c.v
	off = s.off[base-segLo : spanHi-segLo+1]
	first := s.off[0]
	adj = s.adj[off[0]-first : off[len(off)-1]-first]
	c.v = spanHi
	return base, off, adj, true
}

// Err returns the verification failure that ended the stream, or nil.
func (c *Cursor) Err() error { return c.err }

// Close releases the underlying container file. Decoded segments already
// handed out remain valid (they are plain slices).
func (f *File) Close() error { return f.cf.Close() }
