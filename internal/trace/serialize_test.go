package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/store"
)

func TestLogsRoundTrip(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(512, 6, 1))
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 3)

	var buf bytes.Buffer
	if err := WriteLogs(logs, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLogs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(logs) {
		t.Fatalf("thread count %d, want %d", len(got), len(logs))
	}
	for i := range logs {
		if got[i].Thread != logs[i].Thread {
			t.Fatalf("thread id mismatch at %d", i)
		}
		if len(got[i].Accesses) != len(logs[i].Accesses) {
			t.Fatalf("log %d length %d, want %d", i, len(got[i].Accesses), len(logs[i].Accesses))
		}
		for j := range logs[i].Accesses {
			if got[i].Accesses[j] != logs[i].Accesses[j] {
				t.Fatalf("access %d/%d differs: %+v vs %+v",
					i, j, got[i].Accesses[j], logs[i].Accesses[j])
			}
		}
	}
}

func TestReadLogsErrors(t *testing.T) {
	if _, err := ReadLogs(strings.NewReader("BOGUS")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadLogs(strings.NewReader("GL")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Truncated body: valid header claiming more accesses than present.
	g := gen.Ring(20)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 1)
	var buf bytes.Buffer
	if err := WriteLogs(logs, &buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-8]
	if _, err := ReadLogs(bytes.NewReader(cut)); err == nil {
		t.Error("truncated trace accepted")
	}
	// Checksum-valid containers whose sections are not thread logs.
	for name, sec := range map[string]store.Section{
		"ragged records": {Name: "thread.0", Data: make([]byte, 25)},
		"foreign name":   {Name: "segmeta", Data: make([]byte, 24)},
		"bad thread id":  {Name: "thread.x", Data: make([]byte, 24)},
		"non-canonical":  {Name: "thread.01", Data: make([]byte, 24)},
	} {
		var buf bytes.Buffer
		if err := store.WriteContainer(&buf, []store.Section{sec}); err != nil {
			t.Fatal(err)
		}
		var ie *store.IntegrityError
		if _, err := ReadLogs(bytes.NewReader(buf.Bytes())); !errors.As(err, &ie) {
			t.Errorf("%s: ReadLogs = %v, want *store.IntegrityError", name, err)
		}
	}
}

// TestReadLogsDetectsCorruption flips single bits across the stream and
// asserts every flip is caught by the container's checksums — the
// failure mode is a damaged archived trace silently replaying a
// different access stream.
func TestReadLogsDetectsCorruption(t *testing.T) {
	g := gen.Ring(12)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 2)
	var buf bytes.Buffer
	if err := WriteLogs(logs, &buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Every byte is covered by the header CRC or a section CRC.
	for off := 0; off < len(clean); off += 7 {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x01
		got, err := ReadLogs(bytes.NewReader(data))
		if err != nil {
			continue
		}
		// A flip that still decodes must decode to the truth — anything
		// else means the checksum missed damage.
		if reflect.DeepEqual(got, logs) {
			continue
		}
		t.Fatalf("bit flip at offset %d decoded to different logs without error", off)
	}
	// And a targeted payload flip is reported as a checksum failure.
	data := append([]byte(nil), clean...)
	data[len(data)/2] ^= 0x80
	if _, err := ReadLogs(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("payload corruption not caught by checksum: %v", err)
	}
}

func TestLogsRoundTripReplayEquivalence(t *testing.T) {
	// A deserialized trace replays identically to the original.
	g := gen.SocialNetwork(9, 8, 2)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 2)
	var buf bytes.Buffer
	if err := WriteLogs(logs, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadLogs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := replayAll(logs, 32), replayAll(loaded, 32)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
