package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeTestContainer(t *testing.T, sections []Section) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "art.glas")
	var buf bytes.Buffer
	if err := WriteContainer(&buf, sections); err != nil {
		t.Fatalf("WriteContainer: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestContainerFileRoundTrip(t *testing.T) {
	sections := []Section{
		{Name: "meta", Data: []byte("hello")},
		{Name: "blob", Data: bytes.Repeat([]byte{7, 1, 250}, 1000)},
		{Name: "empty", Data: nil},
	}
	cf, err := OpenContainer(nil, writeTestContainer(t, sections))
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
	}
	defer cf.Close()

	want := []string{"meta", "blob", "empty"}
	got := cf.Sections()
	if len(got) != len(want) {
		t.Fatalf("Sections() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sections() = %v, want %v", got, want)
		}
	}
	for _, s := range sections {
		size, ok := cf.SectionSize(s.Name)
		if !ok || size != uint64(len(s.Data)) {
			t.Errorf("SectionSize(%q) = %d,%v want %d", s.Name, size, ok, len(s.Data))
		}
		data, err := cf.ReadSection(s.Name)
		if err != nil {
			t.Fatalf("ReadSection(%q): %v", s.Name, err)
		}
		if !bytes.Equal(data, s.Data) {
			t.Errorf("ReadSection(%q) content mismatch", s.Name)
		}
	}

	// Sub-range access through SectionReader sees the same bytes as the
	// full read.
	sr, err := cf.SectionReader("blob")
	if err != nil {
		t.Fatalf("SectionReader: %v", err)
	}
	part := make([]byte, 9)
	if _, err := sr.ReadAt(part, 300); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(part, sections[1].Data[300:309]) {
		t.Errorf("SectionReader range mismatch: %v", part)
	}

	if _, err := cf.ReadSection("nope"); !isIntegrity(err) {
		t.Errorf("ReadSection(missing) = %v, want *IntegrityError", err)
	}
	if _, err := cf.SectionReader("nope"); !isIntegrity(err) {
		t.Errorf("SectionReader(missing) = %v, want *IntegrityError", err)
	}
}

func isIntegrity(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// TestContainerFileCorruption flips/truncates bytes and expects a typed
// integrity error from either open (header damage, size mismatch) or the
// section read (payload damage).
func TestContainerFileCorruption(t *testing.T) {
	sections := []Section{
		{Name: "meta", Data: []byte("hello")},
		{Name: "blob", Data: bytes.Repeat([]byte{9}, 256)},
	}
	path := writeTestContainer(t, sections)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"flipped-table", func(b []byte) []byte { b[14] ^= 0x01; return b }},
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-40] }},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0xAB) }},
		{"flipped-payload", func(b []byte) []byte { b[len(b)-17] ^= 0x40; return b }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), pristine...))
			p := filepath.Join(t.TempDir(), "bad.glas")
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			cf, err := OpenContainer(nil, p)
			if err != nil {
				if !isIntegrity(err) {
					t.Fatalf("open error not typed: %v", err)
				}
				return // rejected at the table — fine
			}
			defer cf.Close()
			for _, s := range sections {
				if _, err := cf.ReadSection(s.Name); err != nil {
					if !isIntegrity(err) {
						t.Fatalf("ReadSection(%q) error not typed: %v", s.Name, err)
					}
					return // payload damage caught by the section CRC
				}
			}
			t.Fatalf("corruption %s escaped verification", tc.name)
		})
	}
}

// TestContainerFileMatchesReadContainer pins the two readers to the same
// decoded content for the same file.
func TestContainerFileMatchesReadContainer(t *testing.T) {
	sections := []Section{
		{Name: "a", Data: []byte{1, 2, 3}},
		{Name: "b", Data: bytes.Repeat([]byte{42}, 100)},
	}
	path := writeTestContainer(t, sections)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ReadContainer(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadContainer: %v", err)
	}
	cf, err := OpenContainer(nil, path)
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
	}
	defer cf.Close()
	for _, s := range full {
		data, err := cf.ReadSection(s.Name)
		if err != nil {
			t.Fatalf("ReadSection(%q): %v", s.Name, err)
		}
		if !bytes.Equal(data, s.Data) {
			t.Errorf("section %q differs between readers", s.Name)
		}
	}
	// Reading past a section's end through SectionReader fails cleanly.
	sr, _ := cf.SectionReader("a")
	if _, err := sr.ReadAt(make([]byte, 4), 0); err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Errorf("over-read = %v, want EOF-ish", err)
	}
}
