package store

import (
	"bufio"
	"encoding/binary"
	"errors"
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

// ReadFailed is the one rule for a failed read of verified data, which
// format describes. Only a short read is an integrity error: the bytes the
// header promises are not there. Any other error (EIO, EISDIR, ...) says
// nothing about the content, so it is returned wrapped with %w, and
// Quarantine passes it through.
func ReadFailed(err error, format string, args ...any) error {
	what := fmt.Sprintf(format, args...)
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return integrityf("%s: %v", what, err)
	}
	return fmt.Errorf("%s: %w", what, err)
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

// SizedReaderAt is a random-access byte source of known size, what the
// container reader needs to check every table extent against the end of
// the data before it allocates. *bytes.Reader, *strings.Reader and
// *io.SectionReader satisfy it; wrap a file as io.NewSectionReader(f, 0,
// size).
type SizedReaderAt interface {
	io.ReaderAt
	Size() int64
}

// sectionExtent is one table entry plus its resolved payload location.
type sectionExtent struct {
	name   string
	offset int64 // absolute payload start within the container
	length uint64
	crc    uint32
}

// readTable is the container's one header parser. It checks the magic,
// the version and the section table against the header checksum before
// any table field is trusted, resolves each payload's offset, and
// requires every extent to lie within r and the last one to end exactly
// at r.Size(), so no payload is allocated for bytes that are not there.
// Verification failures, short reads included, are *IntegrityError (with
// Path unset); any other read error is returned wrapped (see ReadFailed).
func readTable(r SizedReaderAt) ([]sectionExtent, error) {
	size := r.Size()
	br := bufio.NewReader(io.NewSectionReader(r, 0, size))
	hr := &crcReader{r: br, h: crc32.New(Castagnoli)}
	var consumed int64
	readFull := func(p []byte) error {
		n, err := io.ReadFull(hr, p)
		consumed += int64(n)
		return err
	}

	magic := make([]byte, len(containerMagic))
	if err := readFull(magic); err != nil {
		return nil, ReadFailed(err, "reading magic")
	}
	if string(magic) != containerMagic {
		return nil, integrityf("bad magic %q (want %q)", magic, containerMagic)
	}
	var u32 [4]byte
	if err := readFull(u32[:]); err != nil {
		return nil, ReadFailed(err, "reading version")
	}
	if v := binary.LittleEndian.Uint32(u32[:]); v != containerVersion {
		return nil, integrityf("unsupported container version %d (want %d)", v, containerVersion)
	}
	if err := readFull(u32[:]); err != nil {
		return nil, ReadFailed(err, "reading section count")
	}
	nsect := binary.LittleEndian.Uint32(u32[:])
	if nsect > maxSections {
		return nil, integrityf("header claims %d sections, over the limit %d", nsect, maxSections)
	}
	extents := make([]sectionExtent, 0, nsect)
	var u16 [2]byte
	var u64 [8]byte
	for i := uint32(0); i < nsect; i++ {
		if err := readFull(u16[:]); err != nil {
			return nil, ReadFailed(err, "section %d: reading name length", i)
		}
		nameLen := binary.LittleEndian.Uint16(u16[:])
		if nameLen == 0 || nameLen > maxSectionName {
			return nil, integrityf("section %d: name length %d out of range", i, nameLen)
		}
		name := make([]byte, nameLen)
		if err := readFull(name); err != nil {
			return nil, ReadFailed(err, "section %d: reading name", i)
		}
		var e sectionExtent
		e.name = string(name)
		if err := readFull(u64[:]); err != nil {
			return nil, ReadFailed(err, "section %q: reading length", e.name)
		}
		e.length = binary.LittleEndian.Uint64(u64[:])
		if e.length > maxSectionBytes {
			return nil, integrityf("section %q claims %d bytes, over the limit %d", e.name, e.length, uint64(maxSectionBytes))
		}
		if err := readFull(u32[:]); err != nil {
			return nil, ReadFailed(err, "section %q: reading checksum", e.name)
		}
		e.crc = binary.LittleEndian.Uint32(u32[:])
		extents = append(extents, e)
	}
	wantHdr := hr.h.Sum32()
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, ReadFailed(err, "reading header checksum")
	}
	consumed += 4
	if got := binary.LittleEndian.Uint32(u32[:]); got != wantHdr {
		return nil, integrityf("header checksum mismatch (file %08x, computed %08x)", got, wantHdr)
	}

	// The container must end exactly where the table says it does:
	// trailing bytes mean the data is not what the header describes.
	off := consumed
	for i := range extents {
		extents[i].offset = off
		if extents[i].length > uint64(size) || off > size-int64(extents[i].length) {
			return nil, integrityf("section %q extends past end of file (offset %d, length %d, file %d)",
				extents[i].name, off, extents[i].length, size)
		}
		off += int64(extents[i].length)
	}
	if off != size {
		return nil, integrityf("trailing bytes after the last section (%d past table end)", size-off)
	}
	return extents, nil
}

// read reads e's payload from r and verifies it against the section
// checksum.
func (e *sectionExtent) read(r io.ReaderAt) ([]byte, error) {
	data := make([]byte, e.length)
	// A full read may report io.EOF at the end of r; a short one never
	// returns nil.
	if n, err := r.ReadAt(data, e.offset); n < len(data) {
		return nil, ReadFailed(err, "section %q: reading payload", e.name)
	}
	if got := crc32.Checksum(data, Castagnoli); got != e.crc {
		return nil, integrityf("section %q checksum mismatch (table %08x, computed %08x)", e.name, e.crc, got)
	}
	return data, nil
}

// ReadContainer deserializes and fully verifies a container: readTable
// verifies the header and section table, then every section payload is
// read and validated against its CRC32C before being returned.
// Verification failures are *IntegrityError (with Path unset); an I/O
// error is returned wrapped.
func ReadContainer(r SizedReaderAt) ([]Section, error) {
	extents, err := readTable(r)
	if err != nil {
		return nil, err
	}
	sections := make([]Section, len(extents))
	for i := range extents {
		data, err := extents[i].read(r)
		if err != nil {
			return nil, err
		}
		sections[i] = Section{Name: extents[i].name, Data: data}
	}
	return sections, nil
}

// IsContainer reports whether data starts with the container magic —
// the cheap front-door test Scan uses to tell artifacts from foreign
// files.
func IsContainer(data []byte) bool {
	return len(data) >= len(containerMagic) && string(data[:len(containerMagic)]) == containerMagic
}
