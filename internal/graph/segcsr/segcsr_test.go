package segcsr

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphlocality/internal/obs"
	"graphlocality/internal/store"
)

// randCSR builds a random structurally valid CSR: n vertices, rows of
// random length with sorted ascending neighbours (duplicates allowed —
// the format supports parallel edges).
func randCSR(rng *rand.Rand, n uint32, maxDeg int) CSR {
	off := make([]uint64, n+1)
	adj := make([]uint32, 0)
	for v := uint32(0); v < n; v++ {
		deg := rng.Intn(maxDeg + 1)
		row := make([]int, deg)
		for i := range row {
			row[i] = rng.Intn(int(n))
		}
		// insertion sort keeps the helper dependency-free
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		for _, u := range row {
			adj = append(adj, uint32(u))
		}
		off[v+1] = uint64(len(adj))
	}
	return CSR{Off: off, Adj: adj}
}

// transpose builds the CSC of a CSR.
func transpose(c CSR, n uint32) CSR {
	off := make([]uint64, n+1)
	for _, u := range c.Adj {
		off[u+1]++
	}
	for v := uint32(0); v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]uint32, len(c.Adj))
	cur := make([]uint64, n)
	copy(cur, off[:n])
	for v := uint32(0); v < n; v++ {
		for _, u := range c.Adj[c.Off[v]:c.Off[v+1]] {
			adj[cur[u]] = v
			cur[u]++
		}
	}
	return CSR{Off: off, Adj: adj}
}

func writeTemp(t *testing.T, out, in CSR, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.segcsr")
	if _, err := Write(nil, path, out, in, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

// collect materializes a direction of an open File back into raw CSR
// arrays through the cursor API.
func collect(t *testing.T, f *File, in bool) CSR {
	t.Helper()
	n := f.NumVertices()
	out := CSR{Off: make([]uint64, 0, n+1), Adj: make([]uint32, 0)}
	cur := f.Rows(in, 0, n)
	next := uint32(0)
	for {
		base, off, adj, ok := cur.Next()
		if !ok {
			break
		}
		if base != next {
			t.Fatalf("span starts at %d, want %d", base, next)
		}
		if len(out.Off) == 0 {
			out.Off = append(out.Off, off[0])
		}
		if off[0] != out.Off[len(out.Off)-1] {
			t.Fatalf("span offset %d discontinuous with %d", off[0], out.Off[len(out.Off)-1])
		}
		out.Off = append(out.Off, off[1:]...)
		out.Adj = append(out.Adj, adj...)
		next = base + uint32(len(off)) - 1
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if n == 0 {
		out.Off = append(out.Off, 0)
	}
	if next != n {
		t.Fatalf("cursor stopped at %d, want %d", next, n)
	}
	return out
}

// TestRoundTrip is the property test: Write then Open reproduces the
// exact offsets and adjacency, across segment geometries including
// 1-vertex segments and a single all-covering segment.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []struct {
		name string
		n    uint32
		deg  int
	}{
		{"tiny", 5, 3},
		{"medium", 333, 9},
		{"empty-rows", 64, 1},
		{"single-vertex", 1, 4},
	}
	for _, gc := range graphs {
		out := randCSR(rng, gc.n, gc.deg)
		in := transpose(out, gc.n)
		for _, segVerts := range []int{1, 3, 16, int(gc.n), int(gc.n) + 100} {
			opts := Options{SegmentVertices: segVerts}
			path := writeTemp(t, out, in, opts)
			f, err := Open(nil, path, opts)
			if err != nil {
				t.Fatalf("%s/seg=%d: Open: %v", gc.name, segVerts, err)
			}
			if f.NumVertices() != gc.n || f.NumEdges() != uint64(len(out.Adj)) {
				t.Fatalf("%s/seg=%d: dims %d/%d", gc.name, segVerts, f.NumVertices(), f.NumEdges())
			}
			gotOut := collect(t, f, false)
			gotIn := collect(t, f, true)
			if !reflect.DeepEqual(gotOut, out) || !reflect.DeepEqual(gotIn, in) {
				t.Fatalf("%s/seg=%d: round-trip mismatch", gc.name, segVerts)
			}
			// EdgeOffset agrees with the raw offsets at every vertex.
			for v := uint32(0); v <= gc.n; v++ {
				if got := f.EdgeOffset(false, v); got != out.Off[v] {
					t.Fatalf("%s/seg=%d: EdgeOffset(out,%d) = %d, want %d", gc.name, segVerts, v, got, out.Off[v])
				}
				if got := f.EdgeOffset(true, v); got != in.Off[v] {
					t.Fatalf("%s/seg=%d: EdgeOffset(in,%d) = %d, want %d", gc.name, segVerts, v, got, in.Off[v])
				}
			}
			if err := f.Err(); err != nil {
				t.Fatalf("%s/seg=%d: latched error: %v", gc.name, segVerts, err)
			}
			f.Close()
		}
	}
}

// TestRoundTripEmptyGraph pins the zero-vertex edge case.
func TestRoundTripEmptyGraph(t *testing.T) {
	empty := CSR{Off: []uint64{0}}
	path := writeTemp(t, empty, empty, Options{})
	f, err := Open(nil, path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.NumVertices() != 0 || f.NumEdges() != 0 || f.Segments() != 0 {
		t.Fatalf("dims = %d/%d/%d, want zeros", f.NumVertices(), f.NumEdges(), f.Segments())
	}
	if _, _, _, ok := f.Rows(false, 0, 0).Next(); ok {
		t.Fatal("cursor over empty graph yielded a span")
	}
}

// TestEncodedBytesMatchesWrite pins Measure/EncodedBytes to the writer's
// actual payload sizes — the bytes/edge metric must be exactly what the
// on-disk format costs, and independent of segment geometry.
func TestEncodedBytesMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	out := randCSR(rng, 200, 8)
	in := transpose(out, 200)
	var want WriteStats
	for i, segVerts := range []int{1, 7, 64, 4096} {
		path := writeTemp(t, out, in, Options{SegmentVertices: segVerts})
		f, err := Open(nil, path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Write(nil, path, out, in, Options{SegmentVertices: segVerts})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.OutPayloadBytes != EncodedBytes(out) || st.InPayloadBytes != EncodedBytes(in) {
			t.Fatalf("seg=%d: payload bytes %d/%d, EncodedBytes %d/%d",
				segVerts, st.OutPayloadBytes, st.InPayloadBytes, EncodedBytes(out), EncodedBytes(in))
		}
		if i == 0 {
			want = st
		} else if st.OutPayloadBytes != want.OutPayloadBytes || st.InPayloadBytes != want.InPayloadBytes {
			t.Fatalf("payload size depends on segment geometry: %v vs %v", st, want)
		}
		m := Measure(out, in, Options{SegmentVertices: segVerts})
		if m.OutPayloadBytes != st.OutPayloadBytes || m.NumEdges != st.NumEdges || m.Segments != st.Segments {
			t.Fatalf("Measure disagrees with Write: %+v vs %+v", m, st)
		}
	}
}

// TestCacheBudget asserts the strict budget invariant through both the
// direct stats and the obs gauges: peak resident bytes never exceed the
// budget, and a tiny budget forces evictions while still serving every
// read correctly.
func TestCacheBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out := randCSR(rng, 512, 6)
	in := transpose(out, 512)
	path := writeTemp(t, out, in, Options{SegmentVertices: 16})

	reg := obs.NewRegistry()
	budget := int64(2048)
	f, err := Open(nil, path, Options{CacheBytes: budget, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Two full passes in both directions: the second pass re-decodes
	// whatever the budget evicted.
	for pass := 0; pass < 2; pass++ {
		got := collect(t, f, false)
		if !reflect.DeepEqual(got, out) {
			t.Fatalf("pass %d: out mismatch under tiny budget", pass)
		}
		got = collect(t, f, true)
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("pass %d: in mismatch under tiny budget", pass)
		}
	}
	resident, peak := f.cache.stats()
	if resident > budget || peak > budget {
		t.Fatalf("cache exceeded budget: resident %d, peak %d, budget %d", resident, peak, budget)
	}
	if g := reg.Gauge("segcsr.cache.peak_bytes").Value(); g > float64(budget) {
		t.Fatalf("obs peak gauge %v exceeds budget %d", g, budget)
	}
	if reg.Counter("segcsr.cache.evictions").Value() == 0 {
		t.Fatal("tiny budget produced no evictions")
	}
	if reg.Counter("segcsr.cache.misses").Value() == 0 {
		t.Fatal("no misses recorded")
	}
}

// TestCacheHits: with an ample budget the second pass is all hits.
func TestCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	out := randCSR(rng, 128, 4)
	in := transpose(out, 128)
	path := writeTemp(t, out, in, Options{SegmentVertices: 8})
	reg := obs.NewRegistry()
	f, err := Open(nil, path, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	collect(t, f, false)
	misses := reg.Counter("segcsr.cache.misses").Value()
	collect(t, f, false)
	if got := reg.Counter("segcsr.cache.misses").Value(); got != misses {
		t.Fatalf("second pass missed (%d → %d) despite ample budget", misses, got)
	}
	if reg.Counter("segcsr.cache.hits").Value() == 0 {
		t.Fatal("no hits recorded")
	}
}

func isIntegrity(err error) bool {
	var ie *store.IntegrityError
	return errors.As(err, &ie)
}

// TestCorruption flips bytes in the written file and expects typed
// integrity errors from open (index/meta damage — those sections are
// container-CRC-verified) or from segment reads (payload damage — caught
// by the per-segment CRC in the index).
func TestCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	out := randCSR(rng, 100, 5)
	in := transpose(out, 100)
	path := writeTemp(t, out, in, Options{SegmentVertices: 10})
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every single-byte flip anywhere in the file must be caught by one
	// CRC layer or another. Probe a spread of positions.
	for pos := 0; pos < len(pristine); pos += 37 {
		mutated := append([]byte(nil), pristine...)
		mutated[pos] ^= 0x20
		p := filepath.Join(t.TempDir(), "bad.segcsr")
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(nil, p, Options{})
		if err != nil {
			if !isIntegrity(err) {
				t.Fatalf("pos %d: open error not typed: %v", pos, err)
			}
			continue
		}
		caught := false
		for _, in := range []bool{false, true} {
			for s := 0; s < f.Segments(); s++ {
				if _, err := f.Segment(in, s); err != nil {
					if !isIntegrity(err) {
						t.Fatalf("pos %d: segment error not typed: %v", pos, err)
					}
					caught = true
				}
			}
		}
		if !caught {
			t.Fatalf("pos %d: single-byte flip escaped verification", pos)
		}
		if f.Err() == nil {
			t.Fatalf("pos %d: File.Err() not latched", pos)
		}
		f.Close()
	}
}

// TestCursorEndsOnCorruption: a cursor crossing a damaged segment stops
// early and reports through Err rather than returning bad spans.
func TestCursorEndsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	out := randCSR(rng, 60, 5)
	in := transpose(out, 60)
	path := writeTemp(t, out, in, Options{SegmentVertices: 10})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end: inside the in-direction payload, leaving
	// the header/indexes (early bytes) intact so Open succeeds.
	raw[len(raw)-3] ^= 0xFF
	p := filepath.Join(t.TempDir(), "tail.segcsr")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(nil, p, Options{})
	if err != nil {
		if !isIntegrity(err) {
			t.Fatalf("open error not typed: %v", err)
		}
		return
	}
	defer f.Close()
	cur := f.Rows(true, 0, f.NumVertices())
	for {
		if _, _, _, ok := cur.Next(); !ok {
			break
		}
	}
	if cur.Err() == nil || !isIntegrity(cur.Err()) {
		t.Fatalf("cursor over damaged payload: Err = %v, want *IntegrityError", cur.Err())
	}
	if f.Err() == nil {
		t.Fatal("File.Err() not latched by cursor failure")
	}
}

// stats returns the cache's current and peak resident byte counts.
func (c *segCache) stats() (resident, peak int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident, c.peak
}
