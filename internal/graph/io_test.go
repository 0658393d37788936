package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// validBinary serializes the diamond graph for the corruption tests to
// mutate. Layout: "GLCG", version u64, |V| u64, |E| u64, offsets
// (|V|+1)×u64, adjacency |E|×u32, little-endian.
func validBinary(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := diamond().WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

const (
	hdrVersionOff  = 4
	hdrVerticesOff = 4 + 8
	hdrEdgesOff    = 4 + 16
	offsetsOff     = 4 + 24
)

func putU64(b []byte, off int, x uint64) {
	binary.LittleEndian.PutUint64(b[off:], x)
}

func TestReadBinaryRoundTrip(t *testing.T) {
	g, err := ReadBinary(bytes.NewReader(validBinary(t)))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := diamond()
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("round trip changed shape: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
}

// TestReadBinaryCorrupt mutates a valid file one field at a time and checks
// each mutation is rejected with a descriptive error (never a panic or an
// accepted bogus graph).
func TestReadBinaryCorrupt(t *testing.T) {
	base := validBinary(t)
	nVerts := binary.LittleEndian.Uint64(base[hdrVerticesOff:])
	nEdges := binary.LittleEndian.Uint64(base[hdrEdgesOff:])
	adjOff := offsetsOff + int(nVerts+1)*8

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "magic"},
		{"truncated magic", func(b []byte) []byte { return b[:2] }, "magic"},
		{"bad magic", func(b []byte) []byte { copy(b, "NOPE"); return b }, "bad magic"},
		{"truncated header", func(b []byte) []byte { return b[:hdrEdgesOff] }, "header"},
		{"bad version", func(b []byte) []byte { putU64(b, hdrVersionOff, 99); return b }, "unsupported version"},
		{"absurd vertex count", func(b []byte) []byte {
			putU64(b, hdrVerticesOff, MaxBinaryVertices+1)
			return b
		}, "over the loader limit"},
		{"absurd edge count", func(b []byte) []byte {
			putU64(b, hdrEdgesOff, MaxBinaryEdges+1)
			return b
		}, "over the loader limit"},
		{"vertex count beyond file", func(b []byte) []byte {
			putU64(b, hdrVerticesOff, 1<<20)
			return b
		}, "reading offsets"},
		{"edge count beyond file", func(b []byte) []byte {
			putU64(b, hdrEdgesOff, nEdges+1000)
			return b
		}, "tail offset"},
		{"truncated offsets", func(b []byte) []byte { return b[:offsetsOff+4] }, "reading offsets"},
		{"non-monotone offsets", func(b []byte) []byte {
			putU64(b, offsetsOff+8, nEdges) // off[1] jumps high...
			putU64(b, offsetsOff+16, 0)     // ...then off[2] drops back
			return b
		}, "not monotone"},
		{"non-zero head offset", func(b []byte) []byte {
			putU64(b, offsetsOff, 1)
			return b
		}, "head offset"},
		{"offset exceeds edge count", func(b []byte) []byte {
			putU64(b, offsetsOff+8, nEdges+5)
			return b
		}, "exceeds edge count"},
		{"tail offset mismatch", func(b []byte) []byte {
			// Shrink every offset to 0 so off[n] != m while staying monotone.
			for v := uint64(0); v <= nVerts; v++ {
				putU64(b, offsetsOff+int(v)*8, 0)
			}
			return b
		}, "tail offset"},
		{"truncated edges", func(b []byte) []byte { return b[:adjOff+2] }, "reading edges"},
		{"adjacency out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[adjOff:], uint32(nVerts))
			return b
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), base...))
			g, err := ReadBinary(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("corrupt file accepted: %v", g)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadBinaryChecksum: damage that passes every structural check must
// still be rejected by the trailing CRC32C — here the last adjacency
// entry is swapped for another in-range vertex ID.
func TestReadBinaryChecksum(t *testing.T) {
	b := validBinary(t)
	adjOff := offsetsOff + int(binary.LittleEndian.Uint64(b[hdrVerticesOff:])+1)*8
	lastAdj := len(b) - 8 // final u32 adjacency entry + trailing crc u32
	if lastAdj < adjOff {
		t.Fatal("test graph has no edges")
	}
	old := binary.LittleEndian.Uint32(b[lastAdj:])
	binary.LittleEndian.PutUint32(b[lastAdj:], (old+1)%uint32(binary.LittleEndian.Uint64(b[hdrVerticesOff:])))
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("structurally-valid corruption not caught by checksum: %v", err)
	}
	// A truncated checksum is also rejected.
	b2 := validBinary(t)
	if _, err := ReadBinary(bytes.NewReader(b2[:len(b2)-2])); err == nil {
		t.Error("truncated checksum accepted")
	}
	// Trailing garbage after the checksum is rejected.
	b3 := append(validBinary(t), 0xFF)
	if _, err := ReadBinary(bytes.NewReader(b3)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage accepted: %v", err)
	}
}

// TestReadBinaryLegacyV1 keeps pre-checksum files loadable: the same
// stream minus the trailing CRC, with the version field set to 1.
func TestReadBinaryLegacyV1(t *testing.T) {
	b := validBinary(t)
	v1 := b[:len(b)-4] // drop the trailing checksum
	putU64(v1, hdrVersionOff, 1)
	g, err := ReadBinary(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	want := diamond()
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("legacy load changed shape: |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
}

// TestReadBinaryHugeHeaderNoAllocation checks a header claiming a huge (but
// under-limit) graph fails fast at EOF instead of allocating the claimed
// size up front.
func TestReadBinaryHugeHeaderNoAllocation(t *testing.T) {
	b := validBinary(t)[:offsetsOff]
	putU64(b, hdrVerticesOff, MaxBinaryVertices)
	putU64(b, hdrEdgesOff, MaxBinaryEdges)
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated huge-header file accepted")
	}
}

func TestReadBinaryEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := FromEdges(0, nil).WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("want empty graph, got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
}
