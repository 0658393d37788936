package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// File formats:
//
//   - Text: one "src dst" pair per line, '#'-prefixed comment lines skipped.
//     The vertex count is max ID + 1 unless given explicitly.
//   - Binary: magic "GLCG", version, |V|, |E|, CSR offsets, CSR edges and —
//     since version 2 — a trailing CRC32C over every preceding byte, so
//     bit rot or a torn tail in a saved graph is rejected instead of
//     silently reordering a different graph. Version-1 files (no
//     checksum) still load. CSC is rebuilt on load. Little-endian
//     throughout.

const (
	binaryMagic   = "GLCG"
	binaryVersion = 2
	// binaryVersionLegacy is the pre-checksum format, accepted on read.
	binaryVersionLegacy = 1
)

// graphCastagnoli is the CRC32C polynomial, matching the framing used by
// internal/store artifacts and trace files.
var graphCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Limits a binary header may claim before the loader rejects it outright.
// Both sit far above any graph this toolkit builds, but low enough that a
// corrupt or hostile header cannot drive the loader toward terabyte-scale
// allocations or multiplication overflow.
const (
	// MaxBinaryVertices bounds |V|; 2^28 vertices already mean 2 GiB of
	// offset data.
	MaxBinaryVertices = 1 << 28
	// MaxBinaryEdges bounds |E|; 2^32 edges already mean 16 GiB of
	// adjacency data.
	MaxBinaryEdges = 1 << 32
)

// WriteBinary serializes the graph's CSR form to w, ending with a CRC32C
// over every preceding byte.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(graphCastagnoli)
	hw := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(hw, binaryMagic); err != nil {
		return err
	}
	hdr := []uint64{binaryVersion, uint64(g.n), g.NumEdges()}
	for _, x := range hdr {
		if err := binary.Write(hw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(hw, binary.LittleEndian, g.outOff); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, g.outAdj); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// crcTapReader accumulates a CRC over exactly the bytes the consumer
// reads, so the trailing checksum compares against the consumed stream.
type crcTapReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *crcTapReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

// ReadBinary deserializes a graph written by WriteBinary. The loader is
// hardened against corrupt or hostile input: it validates the magic and
// version, caps the claimed |V| and |E| (MaxBinaryVertices,
// MaxBinaryEdges), checks offset monotonicity and the outOff[n] == |E|
// invariant as offsets stream in, and bounds-checks every adjacency ID, so
// a damaged file yields a descriptive error rather than a huge allocation
// or a panic later on.
func ReadBinary(r io.Reader) (*Graph, error) {
	// Everything up to the trailing checksum is consumed through the CRC
	// tap; for legacy version-1 files the accumulated hash is simply
	// ignored.
	br := bufio.NewReader(r)
	hr := &crcTapReader{r: br, h: crc32.New(graphCastagnoli)}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(hr, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q (want %q)", magic, binaryMagic)
	}
	var version, n, m uint64
	for _, p := range []*uint64{&version, &n, &m} {
		if err := binary.Read(hr, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if version != binaryVersion && version != binaryVersionLegacy {
		return nil, fmt.Errorf("graph: unsupported version %d (want %d)", version, uint64(binaryVersion))
	}
	if n > MaxBinaryVertices {
		return nil, fmt.Errorf("graph: header claims %d vertices, over the loader limit %d", n, uint64(MaxBinaryVertices))
	}
	if m > MaxBinaryEdges {
		return nil, fmt.Errorf("graph: header claims %d edges, over the loader limit %d", m, uint64(MaxBinaryEdges))
	}
	// Read in bounded chunks so a corrupt header cannot demand a huge
	// allocation before EOF is detected, validating as data streams in.
	const chunk = 1 << 16
	off := make([]uint64, 0, min64(n+1, chunk))
	var prev uint64
	for read := uint64(0); read < n+1; {
		c := min64(n+1-read, chunk)
		buf := make([]uint64, c)
		if err := binary.Read(hr, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading offsets (%d of %d): %w", read, n+1, err)
		}
		if read == 0 && buf[0] != 0 {
			return nil, fmt.Errorf("graph: head offset %d != 0", buf[0])
		}
		for i, x := range buf {
			if x < prev {
				return nil, fmt.Errorf("graph: offsets not monotone at vertex %d (%d after %d)", read+uint64(i), x, prev)
			}
			if x > m {
				return nil, fmt.Errorf("graph: offset %d of vertex %d exceeds edge count %d", x, read+uint64(i), m)
			}
			prev = x
		}
		off = append(off, buf...)
		read += c
	}
	if off[n] != m {
		return nil, fmt.Errorf("graph: tail offset %d != header edge count %d", off[n], m)
	}
	adj := make([]uint32, 0, min64(m, chunk))
	for read := uint64(0); read < m; {
		c := min64(m-read, chunk)
		buf := make([]uint32, c)
		if err := binary.Read(hr, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading edges (%d of %d): %w", read, m, err)
		}
		for i, u := range buf {
			if uint64(u) >= n {
				return nil, fmt.Errorf("graph: adjacency entry %d (value %d) out of range for %d vertices", read+uint64(i), u, n)
			}
		}
		adj = append(adj, buf...)
		read += c
	}
	if version >= binaryVersion {
		want := hr.h.Sum32()
		var got uint32
		if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
			return nil, fmt.Errorf("graph: reading trailing checksum: %w", err)
		}
		if got != want {
			return nil, fmt.Errorf("graph: checksum mismatch (file %08x, computed %08x)", got, want)
		}
		if x, err := br.Read(make([]byte, 1)); x != 0 || err != io.EOF {
			return nil, fmt.Errorf("graph: trailing bytes after checksum")
		}
	}
	return FromCSR(uint32(n), off, adj)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

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
// allocation. Larger graphs should use the binary format or FromEdges.
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
