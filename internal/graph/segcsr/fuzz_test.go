package segcsr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"graphlocality/internal/store"
)

// fuzzSeeds builds the seed corpus for FuzzReadSegmented: a valid file,
// a truncated index, payloads whose CRC32C matches but whose varint
// structure is broken in each interesting way, and a CRC-flipped
// payload. The same seeds are committed under testdata/fuzz (see
// TestWriteFuzzCorpus) so `go test` always exercises them.
func fuzzSeeds() [][]byte {
	var seeds [][]byte

	// Seed 0: a pristine small graph.
	rng := rand.New(rand.NewSource(42))
	out := randCSRSeed(rng, 20, 4)
	in := transposeSeed(out, 20)
	valid := writeBytes(out, in, 4)
	seeds = append(seeds, valid)

	// Seed 1: truncated mid-index (container table will disown it).
	seeds = append(seeds, valid[:len(valid)*2/3])

	// Seed 2: CRC-flipped segment payload — container framing passes
	// (payload sections are unverified at that layer), the per-segment
	// CRC must catch it. Flip the last payload byte and rebuild the
	// container so only the inner check can object.
	seeds = append(seeds, flipLastPayloadByte(out, in, 4))

	// Seeds 3..: hand-built containers whose payload CRCs match but whose
	// payload bytes are structurally corrupt, exercising each decode
	// rejection: unterminated varint, degree overflow, neighbour out of
	// range, edge-count mismatch, trailing bytes.
	for _, payload := range [][]byte{
		{0x03, 0x80, 0x80, 0x80, 0x80},       // deg 3, then a gap varint that never terminates
		{0xFF, 0x01, 0x00, 0x00, 0x00, 0x00}, // degree 255 overflows the index's 3 edges
		{0x01, 0x0C, 0x00, 0x01, 0x02},       // first neighbour zigzag(12>>1=6) ≥ n
		{0x01, 0x00, 0x01, 0x00, 0x00},       // decodes 2 edges, index claims 3
		{0x02, 0x00, 0x00, 0x01, 0x00, 0x00}, // valid rows, then trailing bytes
	} {
		seeds = append(seeds, handCraft(2, 3, 2, payload))
	}
	return seeds
}

// randCSRSeed/transposeSeed mirror the helpers in segcsr_test.go but are
// reproduced here so the fuzz file stands alone if the unit tests move.
func randCSRSeed(rng *rand.Rand, n uint32, maxDeg int) CSR { return randCSR(rng, n, maxDeg) }
func transposeSeed(c CSR, n uint32) CSR                    { return transpose(c, n) }

// writeBytes serializes a graph to bytes via the real writer.
func writeBytes(out, in CSR, segVerts int) []byte {
	dir, err := os.MkdirTemp("", "segcsr-fuzz")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g.segcsr")
	if _, err := Write(nil, path, out, in, Options{SegmentVertices: segVerts}); err != nil {
		panic(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return raw
}

// flipLastPayloadByte rebuilds the container with the final in-direction
// payload byte flipped but the outer container framing recomputed, so
// only the per-segment CRC can notice.
func flipLastPayloadByte(out, in CSR, segVerts int) []byte {
	raw := writeBytes(out, in, segVerts)
	secs, err := store.ReadContainer(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	for i := range secs {
		if secs[i].Name == SectionDataIn && len(secs[i].Data) > 0 {
			secs[i].Data[len(secs[i].Data)-1] ^= 0x55
		}
	}
	var buf bytes.Buffer
	if err := store.WriteContainer(&buf, secs); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// handCraft builds a syntactically valid single-segment container for a
// 2-vertex graph whose payload bytes are attacker-chosen but CRC-clean.
func handCraft(n uint32, m uint64, segVerts uint32, payload []byte) []byte {
	meta := make([]byte, metaBytes)
	binary.LittleEndian.PutUint32(meta[0:], FormatVersion)
	binary.LittleEndian.PutUint32(meta[4:], n)
	binary.LittleEndian.PutUint64(meta[8:], m)
	binary.LittleEndian.PutUint32(meta[16:], segVerts)
	binary.LittleEndian.PutUint32(meta[20:], 1)
	idx := make([]byte, idxEntryBytes)
	binary.LittleEndian.PutUint32(idx[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(idx[20:], crc32.Checksum(payload, store.Castagnoli))
	var buf bytes.Buffer
	if err := store.WriteContainer(&buf, []store.Section{
		{Name: SectionMeta, Data: meta},
		{Name: SectionIdxOut, Data: idx},
		{Name: SectionIdxIn, Data: idx},
		{Name: SectionDataOut, Data: payload},
		{Name: SectionDataIn, Data: payload},
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadSegmented is the crash wall: arbitrary bytes fed through Open
// and a full read of every segment, row span and edge offset must either
// succeed or fail with a typed *store.IntegrityError — never panic,
// never return an untyped error, never hand back structurally invalid
// rows.
func FuzzReadSegmented(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.segcsr")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip()
		}
		g, err := Open(nil, path, Options{CacheBytes: 1 << 20})
		if err != nil {
			if !isIntegrity(err) {
				t.Fatalf("open error not typed: %v", err)
			}
			return
		}
		defer g.Close()
		n := g.NumVertices()
		for _, in := range []bool{false, true} {
			cur := g.Rows(in, 0, n)
			var edges uint64
			prevEnd := uint64(0)
			for {
				base, off, adj, ok := cur.Next()
				if !ok {
					break
				}
				// Structural contract on every span that escapes.
				if len(off) < 2 || uint64(len(adj)) != off[len(off)-1]-off[0] {
					t.Fatalf("span at %d: off len %d, adj len %d", base, len(off), len(adj))
				}
				if base != 0 && off[0] != prevEnd {
					t.Fatalf("span at %d: discontinuous offsets", base)
				}
				prevEnd = off[len(off)-1]
				for _, u := range adj {
					if u >= n {
						t.Fatalf("neighbour %d out of range (n=%d)", u, n)
					}
				}
				edges += uint64(len(adj))
			}
			if err := cur.Err(); err != nil && !isIntegrity(err) {
				t.Fatalf("cursor error not typed: %v", err)
			}
			if cur.Err() == nil && edges != g.NumEdges() {
				t.Fatalf("clean read produced %d edges, meta says %d", edges, g.NumEdges())
			}
			for v := uint32(0); v <= n && v <= 64; v++ {
				g.EdgeOffset(in, v)
			}
		}
		if err := g.Err(); err != nil && !isIntegrity(err) {
			t.Fatalf("latched error not typed: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzReadSegmented when SEGCSR_WRITE_CORPUS=1. The files
// use the go-fuzz v1 encoding, so `go test` replays them as part of the
// normal (non-fuzzing) run.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SEGCSR_WRITE_CORPUS") == "" {
		t.Skip("set SEGCSR_WRITE_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadSegmented")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
