package obs

import (
	"bytes"
	"testing"
	"time"
)

// FuzzManifestDecode checks the manifest decoder never panics and that
// normalization is a stable fixed point: any accepted manifest, once
// normalized and encoded, must decode to something that normalizes to the
// same bytes. That idempotence is what makes golden manifests and
// equal trustworthy.
func FuzzManifestDecode(f *testing.F) {
	// A realistic manifest as the structured seed.
	r := NewRegistry()
	r.Counter("expt.cells").Add(12)
	r.Gauge("mem.heap").Set(1.5e6)
	r.Histogram("spmv.steals").Observe(3)
	sp := r.Span("reorder/TwtrS/GO")
	sp.AddEvents(2048)
	sp.AddBytes(8192)
	sp.Done(time.Now().Add(-time.Millisecond))
	m := r.Manifest(Meta{Tool: "localitylab", Command: "experiment table3", Parallel: 4})
	seed, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2}`)) // rejected: future version
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1,"spans":[{"name":"b"},{"name":"a","calls":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		n := m.Normalized()
		enc, err := n.Encode()
		if err != nil {
			t.Fatalf("encoding normalized manifest: %v", err)
		}
		again, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decoding encoded manifest: %v", err)
		}
		enc2, err := again.Normalized().Encode()
		if err != nil {
			t.Fatalf("second normalize/encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("normalization not idempotent:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
		if !equal(n, again) {
			t.Fatal("equal() disagrees with byte-identical normalized encodings")
		}
	})
}
