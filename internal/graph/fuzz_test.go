package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphlocality/internal/graph/segcsr"
	"graphlocality/internal/store"
)

// FuzzReadEdgeList checks the text parser never panics and that any graph
// it accepts is internally consistent and round-trips.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 3 4\n0 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		// Vertex counts may shrink (max-ID based) only if the original
		// had a dangling max ID; edges must survive exactly.
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed |E|: %d vs %d", h.NumEdges(), g.NumEdges())
		}
	})
}

// FuzzReadSegmented checks the graph file loader never panics on corrupt
// input, that every graph it accepts passes Validate, and that an
// accepted graph round-trips through WriteSegmented unchanged.
func FuzzReadSegmented(f *testing.F) {
	valid := segmentedBytes(f, diamond(), 0)
	f.Add(valid)
	f.Add(segmentedBytes(f, diamond(), 1))
	f.Add(segmentedBytes(f, &Graph{}, 0))
	f.Add(segmentedBytes(f, FromEdges(1, []Edge{{0, 0}}), 0))
	f.Add([]byte("GLAS"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Corrupt variants of a valid file: a torn tail, a cut inside the
	// section table, a flipped payload byte and a checksum-valid segmeta
	// that claims far more vertices than the file holds.
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:40])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-2] ^= 0xff
	f.Add(flipped)
	f.Add(withSections(f, valid, func(secs []store.Section) {
		binary.LittleEndian.PutUint32(section(secs, segcsr.SectionMeta)[4:], 1<<20)
	}))
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "g.seg")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := ReadSegmented(path)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if _, err := WriteSegmented(g, path, SegmentedOptions{}); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		h, err := ReadSegmented(path)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !g.Equal(h) {
			t.Fatal("round trip changed the graph")
		}
	})
}
