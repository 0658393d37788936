package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graphlocality/internal/graph/segcsr"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

func randGraph(rng *rand.Rand, n uint32, m int) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))}
	}
	return FromEdges(n, edges)
}

// collectTopology materializes one direction of any Topology back into
// raw offset/adjacency arrays through the cursor API.
func collectTopology(t *testing.T, g Topology, in bool) ([]uint64, []uint32) {
	t.Helper()
	n := g.NumVertices()
	off := make([]uint64, 0, n+1)
	adj := make([]uint32, 0)
	cur := g.Rows(in, 0, n)
	for {
		base, o, a, ok := cur.Next()
		if !ok {
			break
		}
		if len(off) == 0 {
			if base != 0 {
				t.Fatalf("first span starts at %d", base)
			}
			off = append(off, o[0])
		}
		off = append(off, o[1:]...)
		adj = append(adj, a...)
	}
	if len(off) == 0 {
		off = append(off, 0)
	}
	return off, adj
}

// TestWriteOpenSegmentedIdentity is the satellite round-trip property:
// WriteSegmented→OpenSegmented preserves CSR/CSC offsets and edge
// content exactly, across graph shapes and segment sizes.
func TestWriteOpenSegmentedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		n uint32
		m int
	}{{4, 6}, {97, 400}, {256, 64}, {1, 3}} {
		g := randGraph(rng, tc.n, tc.m)
		for _, segVerts := range []int{1, 5, 64, int(tc.n) + 7} {
			path := filepath.Join(t.TempDir(), "g.segcsr")
			stats, err := WriteSegmented(g, path, SegmentedOptions{SegmentVertices: segVerts})
			if err != nil {
				t.Fatalf("n=%d seg=%d: WriteSegmented: %v", tc.n, segVerts, err)
			}
			if stats.NumVertices != g.NumVertices() || stats.NumEdges != g.NumEdges() {
				t.Fatalf("stats dims %d/%d, graph %d/%d", stats.NumVertices, stats.NumEdges, g.NumVertices(), g.NumEdges())
			}
			sg, err := OpenSegmented(path, SegmentedOptions{SegmentVertices: segVerts})
			if err != nil {
				t.Fatalf("n=%d seg=%d: OpenSegmented: %v", tc.n, segVerts, err)
			}
			if sg.NumVertices() != g.NumVertices() || sg.NumEdges() != g.NumEdges() {
				t.Fatalf("SegGraph dims %d/%d", sg.NumVertices(), sg.NumEdges())
			}
			for _, in := range []bool{false, true} {
				wantOff, wantAdj := collectTopology(t, g, in)
				gotOff, gotAdj := collectTopology(t, sg, in)
				if !reflect.DeepEqual(gotOff, wantOff) {
					t.Fatalf("n=%d seg=%d in=%v: offsets differ", tc.n, segVerts, in)
				}
				if !reflect.DeepEqual(gotAdj, wantAdj) {
					t.Fatalf("n=%d seg=%d in=%v: adjacency differs", tc.n, segVerts, in)
				}
			}
			if err := sg.Err(); err != nil {
				t.Fatalf("latched error after clean read: %v", err)
			}
			sg.Close()
		}
	}
}

// TestSegmentedPartitionIdentical pins the partition boundaries to the
// in-RAM partitioner's: the emulated-parallel interleaved access stream
// depends on them, so they must be representation-independent.
func TestSegmentedPartitionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 300, 2000)
	path := filepath.Join(t.TempDir(), "g.segcsr")
	if _, err := WriteSegmented(g, path, SegmentedOptions{SegmentVertices: 17}); err != nil {
		t.Fatal(err)
	}
	sg, err := OpenSegmented(path, SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	for _, in := range []bool{false, true} {
		for _, p := range []int{1, 2, 3, 7, 16, 300, 1000} {
			want := g.PartitionEdgeBalanced(in, p)
			got := sg.PartitionEdgeBalanced(in, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("in=%v p=%d: partitions differ: %v vs %v", in, p, got, want)
			}
		}
	}
	if err := sg.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSegmentedQuarantines: a corrupt segmented graph is quarantined
// on open exactly like a corrupt store artifact, and the error is typed.
func TestOpenSegmentedQuarantines(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randGraph(rng, 50, 200)
	path := filepath.Join(t.TempDir(), "g.segcsr")
	if _, err := WriteSegmented(g, path, SegmentedOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF // inside the header table
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSegmented(path, SegmentedOptions{})
	var ie *store.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("open corrupt = %v, want *store.IntegrityError", err)
	}
	if ie.Quarantined != path+store.CorruptSuffix {
		t.Fatalf("Quarantined = %q, want %q", ie.Quarantined, path+store.CorruptSuffix)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still present: %v", err)
	}
	if _, err := os.Stat(path + store.CorruptSuffix); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// renameRecorder is the OS filesystem with Rename recorded instead of
// performed, so a quarantine attempt is observable and harmless.
type renameRecorder struct {
	vfs.OS
	renames []string
}

func (r *renameRecorder) Rename(oldpath, newpath string) error {
	r.renames = append(r.renames, oldpath+" -> "+newpath)
	return nil
}

// TestOpenSegmentedNeverQuarantinesNonRegularFile: a device node handed
// in as a graph fails verification, but only regular files are ever
// renamed to .corrupt.
func TestOpenSegmentedNeverQuarantinesNonRegularFile(t *testing.T) {
	const devNull = "/dev/null"
	if fi, err := os.Stat(devNull); err != nil || fi.Mode().IsRegular() {
		t.Skipf("%s is absent or a regular file", devNull)
	}
	fsys := &renameRecorder{}
	_, err := OpenSegmented(devNull, SegmentedOptions{FS: fsys})
	var ie *store.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("open %s = %v, want *store.IntegrityError", devNull, err)
	}
	if ie.Quarantined != "" {
		t.Errorf("Quarantined = %q, want none", ie.Quarantined)
	}
	if len(fsys.renames) != 0 {
		t.Errorf("Rename called: %v", fsys.renames)
	}
}

// TestSegmentedEmptyGraph pins the zero-value graph through the full
// write/open/stream cycle.
func TestSegmentedEmptyGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.segcsr")
	if _, err := WriteSegmented(&Graph{}, path, SegmentedOptions{}); err != nil {
		t.Fatal(err)
	}
	sg, err := OpenSegmented(path, SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if sg.NumVertices() != 0 || sg.NumEdges() != 0 {
		t.Fatalf("dims %d/%d", sg.NumVertices(), sg.NumEdges())
	}
	if _, _, _, ok := sg.Rows(false, 0, 0).Next(); ok {
		t.Fatal("empty graph yielded a span")
	}
	if got := sg.PartitionEdgeBalanced(false, 4); len(got) != 0 {
		t.Fatalf("partitions of empty graph: %v", got)
	}
}

// segmentedBytes returns g's segmented file image, written with the
// given segment size (0 = default).
func segmentedBytes(tb testing.TB, g *Graph, segVerts int) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "g.seg")
	if _, err := WriteSegmented(g, path, SegmentedOptions{SegmentVertices: segVerts}); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// withSections re-frames a container image after mutate edits its
// sections in place: the checksums are fresh, so only the loader's
// structural checks stand between the lie and the caller.
func withSections(tb testing.TB, raw []byte, mutate func([]store.Section)) []byte {
	tb.Helper()
	secs, err := store.ReadContainer(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	mutate(secs)
	var buf bytes.Buffer
	if err := store.WriteContainer(&buf, secs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func section(secs []store.Section, name string) []byte {
	data, _ := store.FindSection(secs, name)
	return data
}

// requireQuarantined asserts ReadSegmented rejected the file at path
// with a typed error and moved it aside.
func requireQuarantined(t *testing.T, path string, err error) {
	t.Helper()
	var ie *store.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("ReadSegmented = %v, want *store.IntegrityError", err)
	}
	if ie.Quarantined != path+store.CorruptSuffix {
		t.Fatalf("Quarantined = %q, want %q", ie.Quarantined, path+store.CorruptSuffix)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still present: %v", err)
	}
}

// TestReadSegmentedRoundTrip: ReadSegmented(WriteSegmented(g)) is Equal
// to g and passes Validate, across shapes and segment sizes.
func TestReadSegmentedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"empty", FromEdges(0, nil)},
		{"zero-value", &Graph{}},
		{"single-vertex", FromEdges(1, nil)},
		{"single-self-loop", FromEdges(1, []Edge{{0, 0}})},
		{"diamond", diamond()},
		{"random-97x400", randGraph(rng, 97, 400)},
		{"random-300x2000", randGraph(rng, 300, 2000)},
		{"ring", FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {4, 0}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, segVerts := range []int{0, 1, 7} {
				path := filepath.Join(t.TempDir(), "g.seg")
				if _, err := WriteSegmented(tc.g, path, SegmentedOptions{SegmentVertices: segVerts}); err != nil {
					t.Fatal(err)
				}
				h, err := ReadSegmented(path)
				if err != nil {
					t.Fatalf("seg=%d: %v", segVerts, err)
				}
				if err := h.Validate(); err != nil {
					t.Fatalf("seg=%d: loaded graph invalid: %v", segVerts, err)
				}
				if !h.Equal(tc.g) || !slices.Equal(h.InEdges(), tc.g.InEdges()) {
					t.Fatalf("seg=%d: round trip changed the graph", segVerts)
				}
			}
		})
	}
}

// TestBinaryRoundTrip: the graph's binary file is a store container —
// it starts with the container magic — and, written with default
// options as the CLI writes it, loads back Equal.
func TestBinaryRoundTrip(t *testing.T) {
	g := diamond()
	raw := segmentedBytes(t, g, 0)
	if !store.IsContainer(raw) {
		t.Fatalf("graph file starts with %q, want the container magic", raw[:min(4, len(raw))])
	}
	path := filepath.Join(t.TempDir(), "g.seg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := ReadSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("binary round trip changed the graph")
	}
}

// TestReadSegmentedErrors: a missing file is a plain not-exist error
// with nothing to quarantine; a foreign file is a typed integrity error.
func TestReadSegmentedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadSegmented(filepath.Join(dir, "missing.seg")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	for name, data := range map[string]string{"bogus": "BOGUS data here", "short": "GL"} {
		path := filepath.Join(dir, name+".seg")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSegmented(path)
		requireQuarantined(t, path, err)
	}
}

// TestReadSegmentedCorrupt damages a valid file one way at a time —
// torn or foreign bytes, and checksum-valid sections that lie about the
// graph — and checks every variant is rejected typed and quarantined.
func TestReadSegmentedCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randGraph(rng, 50, 200)
	valid := segmentedBytes(t, g, 16) // four segments per direction
	reversed := segmentedBytes(t, g.Reverse(), 16)
	m := g.NumEdges()
	idxFirstEdge := func(secs []store.Section, seg int) []byte {
		return section(secs, segcsr.SectionIdxOut)[seg*24:]
	}
	validSecs, err := store.ReadContainer(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	idxAt := bytes.Index(valid, section(validSecs, segcsr.SectionIdxOut))
	if idxAt < 0 {
		t.Fatal("out-index section not found in the file image")
	}
	cases := []struct {
		name   string
		mutate func(secs []store.Section)
		bytes  func(b []byte) []byte
	}{
		{name: "empty", bytes: func(b []byte) []byte { return nil }},
		{name: "truncated magic", bytes: func(b []byte) []byte { return b[:2] }},
		{name: "bad magic", bytes: func(b []byte) []byte { copy(b, "NOPE"); return b }},
		{name: "bad version", bytes: func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b }},
		{name: "truncated header", bytes: func(b []byte) []byte { return b[:20] }},
		{name: "truncated offsets", bytes: func(b []byte) []byte { return b[:idxAt+12] }},
		{name: "truncated edges", bytes: func(b []byte) []byte { return b[:len(b)-3] }},
		{name: "trailing bytes", bytes: func(b []byte) []byte { return append(b, 0) }},
		{name: "absurd vertex count", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint32(section(secs, segcsr.SectionMeta)[4:], 1<<31)
		}},
		{name: "absurd edge count", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint64(section(secs, segcsr.SectionMeta)[8:], 1<<62)
		}},
		{name: "vertex count beyond file", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint32(section(secs, segcsr.SectionMeta)[4:], 64)
		}},
		{name: "edge count beyond file", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint64(section(secs, segcsr.SectionMeta)[8:], m+1000)
		}},
		{name: "tail offset mismatch", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint64(section(secs, segcsr.SectionMeta)[8:], m-1)
		}},
		{name: "non-zero head offset", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint64(idxFirstEdge(secs, 0), 1)
		}},
		{name: "non-monotone offsets", mutate: func(secs []store.Section) {
			prev := binary.LittleEndian.Uint64(idxFirstEdge(secs, 1))
			binary.LittleEndian.PutUint64(idxFirstEdge(secs, 2), prev-1)
		}},
		{name: "offset exceeds edge count", mutate: func(secs []store.Section) {
			binary.LittleEndian.PutUint64(idxFirstEdge(secs, 1), m+1)
		}},
		{name: "edges over zero vertices", mutate: func(secs []store.Section) {
			meta := section(secs, segcsr.SectionMeta)
			binary.LittleEndian.PutUint32(meta[4:], 0)  // |V|
			binary.LittleEndian.PutUint32(meta[20:], 0) // segments
			for i := range secs {
				if secs[i].Name != segcsr.SectionMeta {
					secs[i].Data = nil
				}
			}
		}},
		{name: "csc disagrees with csr", mutate: func(secs []store.Section) {
			other, err := store.ReadContainer(bytes.NewReader(reversed))
			if err != nil {
				t.Fatal(err)
			}
			for i := range secs {
				if secs[i].Name == segcsr.SectionIdxIn || secs[i].Name == segcsr.SectionDataIn {
					secs[i].Data = section(other, secs[i].Name)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			if tc.mutate != nil {
				b = withSections(t, b, tc.mutate)
			} else {
				b = tc.bytes(b)
			}
			path := filepath.Join(t.TempDir(), "g.seg")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadSegmented(path)
			requireQuarantined(t, path, err)
		})
	}
}

// TestReadSegmentedHugeHeaderNoAllocation: checksum-valid metadata
// claiming a graph of 2^32-1 vertices and 2^40 edges, with geometry
// consistent enough to pass the header checks, is rejected against the
// real payload bytes before anything of the claimed size is allocated.
func TestReadSegmentedHugeHeaderNoAllocation(t *testing.T) {
	raw := withSections(t, segmentedBytes(t, diamond(), 1<<20), func(secs []store.Section) {
		meta := section(secs, segcsr.SectionMeta)
		binary.LittleEndian.PutUint32(meta[4:], math.MaxUint32)  // |V|
		binary.LittleEndian.PutUint64(meta[8:], 1<<40)           // |E|
		binary.LittleEndian.PutUint32(meta[16:], math.MaxUint32) // vertices per segment
		binary.LittleEndian.PutUint32(meta[20:], 1)              // segments
	})
	path := filepath.Join(t.TempDir(), "g.seg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSegmented(path)
	runtime.ReadMemStats(&after)
	requireQuarantined(t, path, err)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting the huge header allocated %d bytes", grew)
	}
}

// TestReadSegmentedDetectsEveryFlip: every byte of a graph file sits
// under some CRC32C, and ReadSegmented verifies all of them, so a bit
// flip anywhere is a typed, quarantined failure — never a different
// graph.
func TestReadSegmentedDetectsEveryFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	valid := segmentedBytes(t, randGraph(rng, 20, 60), 8)
	dir := t.TempDir()
	for off := range valid {
		b := append([]byte(nil), valid...)
		b[off] ^= 0x01
		path := filepath.Join(dir, fmt.Sprintf("g%d.seg", off))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSegmented(path)
		var ie *store.IntegrityError
		if !errors.As(err, &ie) || ie.Quarantined == "" {
			t.Fatalf("flip at byte %d of %d: err = %v, want a quarantined *store.IntegrityError", off, len(valid), err)
		}
	}
}
