package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Container format (little-endian):
//
//	magic   "GLAS" (4 bytes)
//	version u32
//	nsect   u32
//	per section: nameLen u16, name [nameLen]byte, length u64, crc32c u32
//	headerCRC u32   — CRC32C over everything from magic through the table
//	payloads, concatenated in table order
//
// The header checksum is verified before any table field is trusted, and
// each payload is verified against its section checksum before it is
// returned, so no unverified byte ever escapes a read.

const (
	containerMagic   = "GLAS"
	containerVersion = 1

	// maxSections and maxSectionName bound what a corrupt or hostile
	// header can claim before the reader rejects it outright.
	maxSections    = 1 << 12
	maxSectionName = 1 << 10
	// maxSectionBytes bounds one section's payload (1 GiB); every real
	// artifact in this repo is orders of magnitude smaller.
	maxSectionBytes = 1 << 30
)

// Castagnoli is the CRC32C polynomial table behind every checksum in the
// repo: container headers and sections, segcsr segment payloads and the
// serve layer's permutation fingerprints (the same polynomial hardware
// CRC instructions implement).
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named payload of a container artifact.
type Section struct {
	Name string
	Data []byte
}

// FindSection returns the first section with the given name.
func FindSection(sections []Section, name string) ([]byte, bool) {
	for _, s := range sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// IntegrityError reports an artifact that failed verification: bad
// magic, unsupported version, truncation, or a checksum mismatch. When
// the store detected it during a path-level read, Path names the
// artifact and Quarantined the .corrupt file the evidence was moved to.
type IntegrityError struct {
	// Path is the artifact path ("" for stream-level decodes).
	Path string
	// Reason says what failed verification.
	Reason string
	// Quarantined is the path the corrupt artifact was renamed to (""
	// when no quarantine happened, e.g. the rename itself failed or the
	// decode was stream-level).
	Quarantined string
}

func (e *IntegrityError) Error() string {
	msg := "store: integrity error"
	if e.Path != "" {
		msg += " in " + e.Path
	}
	msg += ": " + e.Reason
	if e.Quarantined != "" {
		msg += " (quarantined to " + e.Quarantined + ")"
	}
	return msg
}

func integrityf(format string, args ...any) error {
	return &IntegrityError{Reason: fmt.Sprintf(format, args...)}
}

// WriteContainer serializes sections to w in the container format.
func WriteContainer(w io.Writer, sections []Section) error {
	if len(sections) > maxSections {
		return fmt.Errorf("store: %d sections exceed the format limit %d", len(sections), maxSections)
	}
	bw := bufio.NewWriter(w)
	hdrCRC := crc32.New(Castagnoli)
	hw := io.MultiWriter(bw, hdrCRC)
	if _, err := hw.Write([]byte(containerMagic)); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(containerVersion)); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(len(sections))); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s.Name) == 0 || len(s.Name) > maxSectionName {
			return fmt.Errorf("store: section name %q out of range", s.Name)
		}
		if len(s.Data) > maxSectionBytes {
			return fmt.Errorf("store: section %q payload %d bytes exceeds the format limit", s.Name, len(s.Data))
		}
		if err := binary.Write(hw, binary.LittleEndian, uint16(len(s.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(hw, s.Name); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, uint64(len(s.Data))); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, crc32.Checksum(s.Data, Castagnoli)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, hdrCRC.Sum32()); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := bw.Write(s.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// crcReader hashes every byte the consumer actually reads, so a trailing
// checksum can be compared against exactly the verified prefix.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

// ReadContainer deserializes and fully verifies a container: the header
// checksum is validated before any table field is used, and every
// section payload is validated against its CRC32C before being returned.
// Verification failures are *IntegrityError (with Path unset).
func ReadContainer(r io.Reader) ([]Section, error) {
	br := bufio.NewReader(r)
	hr := &crcReader{r: br, h: crc32.New(Castagnoli)}

	magic := make([]byte, len(containerMagic))
	if _, err := io.ReadFull(hr, magic); err != nil {
		return nil, integrityf("reading magic: %v", err)
	}
	if string(magic) != containerMagic {
		return nil, integrityf("bad magic %q (want %q)", magic, containerMagic)
	}
	var version, nsect uint32
	if err := binary.Read(hr, binary.LittleEndian, &version); err != nil {
		return nil, integrityf("reading version: %v", err)
	}
	if version != containerVersion {
		return nil, integrityf("unsupported container version %d (want %d)", version, containerVersion)
	}
	if err := binary.Read(hr, binary.LittleEndian, &nsect); err != nil {
		return nil, integrityf("reading section count: %v", err)
	}
	if nsect > maxSections {
		return nil, integrityf("header claims %d sections, over the limit %d", nsect, maxSections)
	}
	type tableEntry struct {
		name   string
		length uint64
		crc    uint32
	}
	table := make([]tableEntry, 0, nsect)
	for i := uint32(0); i < nsect; i++ {
		var nameLen uint16
		if err := binary.Read(hr, binary.LittleEndian, &nameLen); err != nil {
			return nil, integrityf("section %d: reading name length: %v", i, err)
		}
		if nameLen == 0 || nameLen > maxSectionName {
			return nil, integrityf("section %d: name length %d out of range", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(hr, name); err != nil {
			return nil, integrityf("section %d: reading name: %v", i, err)
		}
		var e tableEntry
		e.name = string(name)
		if err := binary.Read(hr, binary.LittleEndian, &e.length); err != nil {
			return nil, integrityf("section %q: reading length: %v", e.name, err)
		}
		if e.length > maxSectionBytes {
			return nil, integrityf("section %q claims %d bytes, over the limit %d", e.name, e.length, uint64(maxSectionBytes))
		}
		if err := binary.Read(hr, binary.LittleEndian, &e.crc); err != nil {
			return nil, integrityf("section %q: reading checksum: %v", e.name, err)
		}
		table = append(table, e)
	}
	wantHdr := hr.h.Sum32()
	var gotHdr uint32
	if err := binary.Read(br, binary.LittleEndian, &gotHdr); err != nil {
		return nil, integrityf("reading header checksum: %v", err)
	}
	if gotHdr != wantHdr {
		return nil, integrityf("header checksum mismatch (file %08x, computed %08x)", gotHdr, wantHdr)
	}

	sections := make([]Section, 0, len(table))
	for _, e := range table {
		// Chunked reads keep a (header-verified but still size-capped)
		// length from allocating everything before EOF is detected.
		const chunk = 1 << 20
		data := make([]byte, 0, min64(e.length, chunk))
		for read := uint64(0); read < e.length; {
			c := min64(e.length-read, chunk)
			buf := make([]byte, c)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, integrityf("section %q: truncated payload (%d of %d bytes): %v", e.name, read, e.length, err)
			}
			data = append(data, buf...)
			read += c
		}
		if got := crc32.Checksum(data, Castagnoli); got != e.crc {
			return nil, integrityf("section %q checksum mismatch (table %08x, computed %08x)", e.name, e.crc, got)
		}
		sections = append(sections, Section{Name: e.name, Data: data})
	}
	// The container must end exactly where the table said it would;
	// trailing bytes mean the file is not what the header describes.
	if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return nil, integrityf("trailing bytes after the last section")
	}
	return sections, nil
}

// IsContainer reports whether data starts with the container magic —
// the cheap front-door test Scan uses to tell artifacts from foreign
// files.
func IsContainer(data []byte) bool {
	return len(data) >= len(containerMagic) && string(data[:len(containerMagic)]) == containerMagic
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
